// Package trace is serena's invocation-tracing and tuple-lineage core: a
// minimal span model (trace ID, span ID, parent, attributes) recorded into
// a fixed-size lock-free ring buffer, so retention is bounded and recording
// stays off the allocator-heavy paths of full tracing stacks.
//
// Design constraints, in order:
//
//   - The β hot path must pay almost nothing for tracing it does not
//     record. The sampling decision is therefore HEAD-BASED and made once
//     per root (one per continuous-query tick or one-shot
//     evaluation): an unsampled root yields a nil *Span, every Span method
//     is nil-safe, and the per-tuple cost of an unsampled evaluation is a
//     single nil check. The 1-in-N decision itself is one atomic add.
//     serenabench's trace.span_ns_unsampled probe measures that path.
//
//   - A trace must stay coherent ACROSS THE WIRE: the client side exports
//     (TraceID, SpanID) for the frame header, and the server side resumes
//     the trace with StartRemote, so a remote invocation renders as one
//     tree — tick → β tuple → wire round trip → server-side execution.
//
//   - Like internal/obs, the package is a dependency-free leaf (standard
//     library only) so every layer — query, cq, service, wire, wal — can
//     record into it without import cycles. A tracer belongs to one
//     engine: each service.Registry creates one, and the layers reach it
//     through the registry they hold.
//
// Relation to the paper: a query's action set (Gripay et al., EDBT 2010,
// Definition 8) says WHICH invocations a query triggers; a trace records
// which invocations actually HAPPENED at an instant, each with its realized
// outcome (rows, retries, breaker state, degradation policy applied). The
// lineage view (Lineage) is the per-tuple join of the two: for a given
// tuple key, every β span that touched it.
package trace

import (
	"context"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"
)

// SpanInvoke is the name of a per-tuple β invocation span. It is shared
// between the layer that records it (internal/query) and the layers that
// query it back out for lineage (internal/pems, the shell), so the two
// cannot drift apart.
const SpanInvoke = "invoke"

// Attr is one key/value annotation on a span. Values are strings: spans are
// a debugging surface, not a metrics pipeline (internal/obs holds numbers).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation in a trace. A span is owned by the goroutine
// driving the operation until Finish, which publishes it to the tracer's
// ring; after Finish it must not be mutated. All methods are nil-safe: an
// unsampled trace hands out nil spans and the instrumentation call sites
// need no conditionals.
type Span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	Start    time.Time
	Dur      time.Duration
	Attrs    []Attr

	tracer *Tracer
}

// Child starts a sub-span. Nil-safe: a nil receiver returns nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		TraceID:  s.TraceID,
		SpanID:   s.tracer.nextID(),
		ParentID: s.SpanID,
		Name:     name,
		Start:    time.Now(),
		tracer:   s.tracer,
	}
}

// SetAttr annotates the span. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// SetAttrInt annotates the span with an integer value. Nil-safe.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: fmt.Sprintf("%d", v)})
}

// Attr returns the value of the named attribute ("" when absent or nil).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Finish stamps the duration and publishes the span to the tracer's ring.
// Nil-safe; finishing twice publishes twice (don't).
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.Dur = time.Since(s.Start)
	s.tracer.ring.put(s)
}

// Trace returns the trace ID (0 for nil — the wire encodes 0 as "not
// traced", so an unsampled invocation propagates nothing).
func (s *Span) Trace() uint64 {
	if s == nil {
		return 0
	}
	return s.TraceID
}

// ID returns the span ID (0 for nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.SpanID
}

// TraceHex renders the trace ID for log correlation ("" for nil).
func (s *Span) TraceHex() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%016x", s.TraceID)
}

// LogAttrs returns slog attributes (trace_id, span_id) for correlating
// structured log lines with spans. Nil yields no attributes, so call sites
// can log unconditionally.
func (s *Span) LogAttrs() []slog.Attr {
	if s == nil {
		return nil
	}
	return []slog.Attr{
		slog.String("trace_id", s.TraceHex()),
		slog.String("span_id", fmt.Sprintf("%016x", s.SpanID)),
	}
}

// Tracer issues spans and owns their retention ring. The zero value is not
// usable; use New.
type Tracer struct {
	ring *ring
	// every is the head-sampling period: 0 disables tracing, 1 samples
	// every root, N samples one root in N.
	every atomic.Int64
	// roots counts sampling decisions; ids hands out span/trace IDs.
	roots atomic.Uint64
	ids   atomic.Uint64
}

// New returns a tracer retaining up to size finished spans (rounded up to a
// power of two, minimum 64) and sampling one root in every.
func New(size int, every int64) *Tracer {
	t := &Tracer{ring: newRing(size)}
	t.every.Store(every)
	// Seed the ID sequence from the clock so concurrently-started processes
	// (core PEMS and pemsd nodes) don't collide on span IDs.
	t.ids.Store(uint64(time.Now().UnixNano()))
	return t
}

// DefaultSampleEvery is an engine tracer's head-sampling period: sparse
// enough that 63 of 64 roots take the unsampled path (serenabench's
// trace.span_ns_unsampled probe), frequent enough that a busy executor
// always has recent traces in the ring.
const DefaultSampleEvery = 64

// DefaultRingSize bounds an engine tracer's retention. The retained spans
// are LIVE heap that every GC cycle must scan, and on small heaps that scan
// — not span creation — is the dominant tracing cost, growing with the ring.
// 512 spans is roughly five traced ticks of a 100-tuple invocation query, a
// comfortable window for the interactive .trace/.lineage surface, which
// only reads recent ticks.
const DefaultRingSize = 512

// SetSampleEvery sets the head-sampling period: 0 disables tracing, 1
// samples every root, n samples one root in n.
func (t *Tracer) SetSampleEvery(n int64) {
	if n < 0 {
		n = 0
	}
	t.every.Store(n)
}

// SampleEvery returns the current head-sampling period.
func (t *Tracer) SampleEvery() int64 { return t.every.Load() }

// Active reports whether the tracer records anything at all. Hot paths use
// it to skip even the context lookup when tracing is off.
func (t *Tracer) Active() bool { return t.every.Load() != 0 }

// nextID returns a fresh non-zero ID (splitmix64 over a counter: cheap,
// well distributed, and 0 — the "no trace" sentinel — is never produced).
func (t *Tracer) nextID() uint64 {
	for {
		x := t.ids.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// StartRoot makes the head sampling decision and, when sampled, starts a
// root span. Everything under an unsampled root is nil and costs one nil
// check per instrumentation site.
func (t *Tracer) StartRoot(name string) *Span {
	every := t.every.Load()
	if every == 0 {
		return nil
	}
	if every > 1 && t.roots.Add(1)%uint64(every) != 0 {
		return nil
	}
	return t.newRoot(name)
}

// ForceRoot starts a root span regardless of the sampling period (the
// shell's .trace command: the user asked for THIS evaluation). It works
// even when sampling is disabled.
func (t *Tracer) ForceRoot(name string) *Span { return t.newRoot(name) }

func (t *Tracer) newRoot(name string) *Span {
	id := t.nextID()
	return &Span{TraceID: id, SpanID: id, Name: name, Start: time.Now(), tracer: t}
}

// StartRemote resumes a trace propagated across the wire: the server side
// of a remote invocation records its execution as a child of the client's
// span. A zero traceID (unsampled or pre-trace peer) yields nil.
func (t *Tracer) StartRemote(name string, traceID, parentID uint64) *Span {
	if traceID == 0 {
		return nil
	}
	return &Span{TraceID: traceID, SpanID: t.nextID(), ParentID: parentID, Name: name, Start: time.Now(), tracer: t}
}

// Snapshot returns the finished spans currently retained, oldest first.
func (t *Tracer) Snapshot() []*Span { return t.ring.snapshot() }

// TraceSpans returns the retained spans of one trace, in start order.
func (t *Tracer) TraceSpans(traceID uint64) []*Span {
	var out []*Span
	for _, s := range t.ring.snapshot() {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// ctxKey carries the active span through a context.Context.
type ctxKey struct{}

// ContextWith returns a context carrying the span. A nil span returns ctx
// unchanged, so untraced paths never pay for context wrapping.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by the context, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
