package pems

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"serena/internal/value"
)

// Offer hands a tuple to a relation's bounded ingest buffer; it is drained
// into the relation at the start of the next tick. The relation must have
// an overload policy (the DDL's ON OVERLOAD clause): BLOCK applies
// backpressure, SHED_OLDEST / SHED_NEWEST drop tuples (counted in .metrics)
// once capacity is reached.
func (p *PEMS) Offer(relation string, t value.Tuple) error {
	x, ok := p.exec.Relation(relation)
	if !ok {
		return fmt.Errorf("pems: unknown relation %q", relation)
	}
	return x.Offer(t)
}

// OverloadReport renders the live overload posture of this PEMS: tick
// budget and overruns, per-query coalescing and every bounded ingest
// buffer's depth and shed counts. The serena
// shell's .overload command prints it.
func (p *PEMS) OverloadReport() string {
	budget, coalescing := p.exec.OverloadSettings()
	var b strings.Builder
	fmt.Fprintf(&b, "tick budget:    %s", durationOrOff(budget))
	fmt.Fprintf(&b, "   overruns: %d   coalescing: %v\n", p.exec.TickOverruns(), coalescing)

	names := p.exec.RelationNames()
	sort.Strings(names)
	any := false
	for _, name := range names {
		x, ok := p.exec.Relation(name)
		if !ok {
			continue
		}
		pol, capacity, on := x.OverloadPolicy()
		if !on {
			continue
		}
		if !any {
			b.WriteString("ingest buffers:\n")
			any = true
		}
		offered, shed := x.IngestStats()
		fmt.Fprintf(&b, "  %-16s %s cap %d   depth %d   offered %d   shed %d\n",
			name, pol, capacity, x.IngestDepth(), offered, shed)
	}
	if !any {
		b.WriteString("ingest buffers: none\n")
	}

	qnames := p.exec.QueryNames()
	sort.Strings(qnames)
	any = false
	for _, name := range qnames {
		q, ok := p.exec.Query(name)
		if !ok {
			continue
		}
		if n := q.Coalesced(); n > 0 {
			if !any {
				b.WriteString("coalesced evaluations:\n")
				any = true
			}
			fmt.Fprintf(&b, "  %-16s %d\n", name, n)
		}
	}
	return b.String()
}

func durationOrOff(d time.Duration) string {
	if d <= 0 {
		return "off"
	}
	return d.String()
}
