package wire

import (
	"errors"
	"strings"
	"time"

	"serena/internal/resilience"
)

// ServerOptions are a Server's overload limits. The zero value sets none.
type ServerOptions struct {
	// MaxInFlight caps how many requests the server executes concurrently
	// across all connections. Excess requests are rejected immediately —
	// no registry work, no goroutine pile-up — with an error the client
	// maps back onto resilience.ErrOverloaded, so the caller's degradation
	// policy decides what the miss means. 0 means unlimited.
	MaxInFlight int
	// ReadTimeout bounds how long a connection may sit idle between
	// requests: a client that connects and goes silent (or dies without
	// FIN) is dropped instead of pinning a server goroutine forever.
	// Healthy-but-quiet clients are dropped too — their next request
	// transparently redials (the client retries connection loss, never
	// timeouts). 0 means none.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write, so a client that stops
	// reading cannot wedge the shared response encoder. 0 means none.
	WriteTimeout time.Duration
}

// overloadedError carries a remote overload rejection verbatim while
// unwrapping to resilience.ErrOverloaded, so errors.Is works across the
// wire boundary.
type overloadedError struct{ msg string }

func (e *overloadedError) Error() string { return e.msg }
func (e *overloadedError) Unwrap() error { return resilience.ErrOverloaded }

// remoteError turns a Response.Err string back into a typed error:
// messages carrying the overload marker (a server fast-rejection) become
// errors.Is-able resilience.ErrOverloaded; everything else stays opaque.
func remoteError(msg string) error {
	if strings.Contains(msg, resilience.ErrOverloaded.Error()) {
		return &overloadedError{msg: msg}
	}
	return errors.New(msg)
}
