package cq_test

import (
	"testing"

	"serena/internal/query"
	"serena/internal/trace"
)

// TestTickSpans asserts the continuous executor's trace shape: each sampled
// tick is one trace rooted at cq.tick, with per-query spans, window/stream
// operator spans, a cq.invoke operator span carrying Section 4.2
// delta-cache effectiveness, and per-tuple β spans only for tuples that
// actually invoked (cache misses).
func TestTickSpans(t *testing.T) {
	s := newScenario(t)
	// photos: invocation over the (static) cameras relation → all misses at
	// instant 0, all delta-cache hits at instant 1.
	if _, err := s.exec.Register("photos", query.NewInvoke(query.NewBase("cameras"), "checkPhoto", "camera")); err != nil {
		t.Fatal(err)
	}
	// recent: windowed stream read → cq.window and cq.stream spans.
	if _, err := s.exec.Register("recent",
		query.NewStream(query.NewWindow(query.NewBase("temperatures"), 1), query.StreamInsertion)); err != nil {
		t.Fatal(err)
	}
	// The instant-1 cache_hits assertion below is naive-evaluator semantics:
	// only the re-evaluate-then-diff path re-consults the §4.2 cache for
	// persisting tuples (the delta path never revisits them — see
	// TestTickSpansDelta). Pin both queries naive.
	for _, name := range []string{"photos", "recent"} {
		if err := s.exec.SetNaiveEvaluation(name, true); err != nil {
			t.Fatal(err)
		}
	}

	tr := s.reg.Tracer()
	tr.SetSampleEvery(1)

	for i := 0; i < 2; i++ {
		if _, err := s.exec.Tick(); err != nil {
			t.Fatal(err)
		}
	}

	// Index the two tick traces by instant.
	ticks := map[string]*trace.Span{}
	for _, sp := range tr.Snapshot() {
		if sp.Name == "cq.tick" {
			ticks[sp.Attr("instant")] = sp
		}
	}
	if len(ticks) != 2 {
		t.Fatalf("recorded %d tick roots, want 2", len(ticks))
	}

	type tickView struct {
		invokeOp *trace.Span
		betas    int
		window   *trace.Span
		stream   *trace.Span
	}
	view := func(root *trace.Span) tickView {
		var v tickView
		for _, sp := range tr.TraceSpans(root.TraceID) {
			switch sp.Name {
			case "cq.invoke":
				v.invokeOp = sp
			case trace.SpanInvoke:
				v.betas++
			case "cq.window":
				v.window = sp
			case "cq.stream":
				v.stream = sp
			}
		}
		return v
	}

	// Instant 0: three cameras invoke physically.
	v0 := view(ticks["0"])
	if v0.invokeOp == nil || v0.window == nil || v0.stream == nil {
		t.Fatalf("instant 0 missing operator spans: %+v", v0)
	}
	if v0.invokeOp.Attr("cache_misses") != "3" || v0.invokeOp.Attr("cache_hits") != "0" {
		t.Fatalf("instant 0 delta-cache attrs: %v", v0.invokeOp.Attrs)
	}
	if v0.betas != 3 {
		t.Fatalf("instant 0 recorded %d β spans, want 3", v0.betas)
	}
	if v0.window.Attr("stream") != "temperatures" {
		t.Fatalf("window span attrs: %v", v0.window.Attrs)
	}
	if v0.stream.Attr("kind") != "insertion" {
		t.Fatalf("stream span attrs: %v", v0.stream.Attrs)
	}

	// Instant 1: persisting camera tuples reuse the delta cache — no
	// physical invocations, so no β spans (Section 4.2).
	v1 := view(ticks["1"])
	if v1.invokeOp.Attr("cache_hits") != "3" || v1.invokeOp.Attr("cache_misses") != "0" {
		t.Fatalf("instant 1 delta-cache attrs: %v", v1.invokeOp.Attrs)
	}
	if v1.betas != 0 {
		t.Fatalf("instant 1 recorded %d β spans, want 0 (all cached)", v1.betas)
	}
}

// TestTickSpansDelta asserts the incremental evaluator records the same
// operator-span shape — and that on a steady tick with no operand churn the
// cq.invoke span shows zero cache traffic, because persisting tuples never
// reach the §4.2 cache at all (they are carried forward as operator state).
func TestTickSpansDelta(t *testing.T) {
	s := newScenario(t)
	if _, err := s.exec.Register("photos", query.NewInvoke(query.NewBase("cameras"), "checkPhoto", "camera")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.exec.Register("recent",
		query.NewStream(query.NewWindow(query.NewBase("temperatures"), 1), query.StreamInsertion)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"photos", "recent"} {
		q, ok := s.exec.Query(name)
		if !ok {
			t.Fatalf("query %q not registered", name)
		}
		if got := q.EvaluationMode(); got != "delta" {
			t.Fatalf("query %q evaluation mode = %q, want delta", name, got)
		}
	}

	tr := s.reg.Tracer()
	tr.SetSampleEvery(1)

	for i := 0; i < 2; i++ {
		if _, err := s.exec.Tick(); err != nil {
			t.Fatal(err)
		}
	}

	ticks := map[string]*trace.Span{}
	for _, sp := range tr.Snapshot() {
		if sp.Name == "cq.tick" {
			ticks[sp.Attr("instant")] = sp
		}
	}
	type tickView struct {
		invokeOp *trace.Span
		betas    int
		window   *trace.Span
		stream   *trace.Span
	}
	view := func(root *trace.Span) tickView {
		var v tickView
		for _, sp := range tr.TraceSpans(root.TraceID) {
			switch sp.Name {
			case "cq.invoke":
				v.invokeOp = sp
			case trace.SpanInvoke:
				v.betas++
			case "cq.window":
				v.window = sp
			case "cq.stream":
				v.stream = sp
			}
		}
		return v
	}

	// Instant 0 is the re-init tick: every camera is a fresh insert, so all
	// three consult the cache, miss, and invoke physically (β spans parented
	// under the operator span).
	v0 := view(ticks["0"])
	if v0.invokeOp == nil || v0.window == nil || v0.stream == nil {
		t.Fatalf("instant 0 missing operator spans: %+v", v0)
	}
	if v0.invokeOp.Attr("cache_misses") != "3" || v0.invokeOp.Attr("cache_hits") != "0" {
		t.Fatalf("instant 0 cache attrs: %v", v0.invokeOp.Attrs)
	}
	if v0.betas != 3 {
		t.Fatalf("instant 0 recorded %d β spans, want 3", v0.betas)
	}
	if v0.window.Attr("stream") != "temperatures" {
		t.Fatalf("window span attrs: %v", v0.window.Attrs)
	}
	if v0.stream.Attr("kind") != "insertion" {
		t.Fatalf("stream span attrs: %v", v0.stream.Attrs)
	}

	// Instant 1: the cameras relation is unchanged, so the delta operator
	// sees an empty input delta — no cache consults, no β spans.
	v1 := view(ticks["1"])
	if v1.invokeOp == nil {
		t.Fatalf("instant 1 missing cq.invoke span: %+v", v1)
	}
	if v1.invokeOp.Attr("cache_hits") != "0" || v1.invokeOp.Attr("cache_misses") != "0" {
		t.Fatalf("instant 1 cache attrs: %v", v1.invokeOp.Attrs)
	}
	if v1.betas != 0 {
		t.Fatalf("instant 1 recorded %d β spans, want 0", v1.betas)
	}
}

// TestUnsampledTickRecordsNothing pins the hot-path contract: with tracing
// disabled, a tick must leave the ring untouched.
func TestUnsampledTickRecordsNothing(t *testing.T) {
	s := newScenario(t)
	if _, err := s.exec.Register("photos", query.NewInvoke(query.NewBase("cameras"), "checkPhoto", "camera")); err != nil {
		t.Fatal(err)
	}
	tr := s.reg.Tracer()
	tr.SetSampleEvery(0)
	if _, err := s.exec.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Snapshot()); got != 0 {
		t.Fatalf("disabled tracer retained %d spans", got)
	}
}
