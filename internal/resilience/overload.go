package resilience

import (
	"fmt"
	"strings"
)

// ErrOverloaded is the sentinel admission control surfaces (wrapped with
// context) when work is rejected because the system is at capacity — a
// wire server over its in-flight limit. It is deliberately distinct from
// ErrOpen (the service is broken) and from a timeout (the outcome is
// unknown): an overload rejection is FAST and definite — the work never
// started — so callers may safely shed, retry later, or degrade.
var ErrOverloaded = fmt.Errorf("resilience: overloaded")

// OverloadPolicy selects what a bounded ingest buffer does with a new
// tuple when it is full (the DDL's ON OVERLOAD clause).
type OverloadPolicy uint8

const (
	// Block makes the producer wait until the consumer drains the buffer —
	// classic backpressure. Nothing is lost; a slow consumer slows its
	// producers down.
	Block OverloadPolicy = iota
	// ShedOldest drops the oldest buffered tuple to admit the new one —
	// freshest-data-wins, the usual choice for sensor streams where a newer
	// reading supersedes a stale one.
	ShedOldest
	// ShedNewest drops the tuple being offered — oldest-data-wins, the
	// choice when earlier events must not be displaced (e.g. an ordered
	// event log).
	ShedNewest
)

// String renders the DDL spelling of the policy.
func (p OverloadPolicy) String() string {
	switch p {
	case Block:
		return "BLOCK"
	case ShedOldest:
		return "SHED_OLDEST"
	case ShedNewest:
		return "SHED_NEWEST"
	}
	return fmt.Sprintf("OverloadPolicy(%d)", uint8(p))
}

// ParseOverloadPolicy parses the DDL spelling (BLOCK | SHED_OLDEST |
// SHED_NEWEST, case-insensitive).
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "BLOCK", "":
		return Block, nil
	case "SHED_OLDEST", "OLDEST":
		return ShedOldest, nil
	case "SHED_NEWEST", "NEWEST", "DROP":
		return ShedNewest, nil
	}
	return Block, fmt.Errorf("resilience: unknown overload policy %q (want BLOCK, SHED_OLDEST or SHED_NEWEST)", s)
}
