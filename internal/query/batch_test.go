package query_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"serena/internal/algebra"
	"serena/internal/device"
	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
)

// countingEnv builds a sensors environment where the first dup of the n refs
// appears under TWO locations — two tuples, one β job each, but identical
// (proto, ref, input) pairs the planner must fold — and a registry whose
// services count physical invocations per ref.
func countingEnv(t *testing.T, n, dup int) (query.MapEnv, *service.Registry, map[string]*atomic.Int64) {
	t.Helper()
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]*atomic.Int64, n)
	var rows []value.Tuple
	for i := 0; i < n; i++ {
		ref := fmt.Sprintf("s%03d", i)
		c := &atomic.Int64{}
		counts[ref] = c
		temp := float64(i)
		err := reg.Register(service.NewFunc(ref, map[string]service.InvokeFunc{
			"getTemperature": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
				c.Add(1)
				return []value.Tuple{{value.NewReal(temp)}}, nil
			},
		}))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, value.Tuple{value.NewService(ref), value.NewString("lab")})
		if i < dup {
			rows = append(rows, value.Tuple{value.NewService(ref), value.NewString("hall")})
		}
	}
	env := query.MapEnv{
		"sensors":  algebra.MustNew(paperenv.SensorsSchema(), rows),
		"contacts": paperenv.Contacts(),
	}
	return env, reg, counts
}

// registerCountingMessengers adds sendMessage services for the contacts
// fixture, counting deliveries per messenger ref.
func registerCountingMessengers(t *testing.T, reg *service.Registry, counts map[string]*atomic.Int64) {
	t.Helper()
	if err := reg.RegisterPrototype(device.SendMessageProto()); err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{"email", "jabber"} {
		c := &atomic.Int64{}
		counts[ref] = c
		err := reg.Register(service.NewFunc(ref, map[string]service.InvokeFunc{
			"sendMessage": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
				c.Add(1)
				return []value.Tuple{{value.NewBool(true)}}, nil
			},
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchedParallelEquivalentToSequential is the Definition 9 property
// test: the batched, parallel pipeline must be EQUIVALENT to the sequential
// per-tuple one — same result relation AND same action set — and on top of
// that must reach each service the same number of times (the over-firing
// bug was invisible to result equality alone).
func TestBatchedParallelEquivalentToSequential(t *testing.T) {
	qPassive := query.NewInvoke(query.NewBase("sensors"), "getTemperature", "")
	qActive := query.NewInvoke(
		query.NewAssignConst(query.NewBase("contacts"), "text", value.NewString("x")),
		"sendMessage", "")

	type run struct {
		passive, active *query.Result
		stats           query.InvokeStats
		counts          map[string]int64
	}
	eval := func(parallelism int, batched bool) run {
		env, reg, counts := countingEnv(t, 8, 4)
		registerCountingMessengers(t, reg, counts)
		if batched {
			withBatchTransport(t, reg)
		}
		ctx := query.NewContext(env, reg, 0)
		ctx.Parallelism = parallelism
		rp, err := query.EvaluateCtx(qPassive, ctx)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := query.EvaluateCtx(qActive, ctx)
		if err != nil {
			t.Fatal(err)
		}
		flat := make(map[string]int64, len(counts))
		for ref, c := range counts {
			flat[ref] = c.Load()
		}
		return run{passive: rp, active: ra, stats: ctx.Stats, counts: flat}
	}

	seq := eval(1, false) // per-tuple, no batching, no parallelism
	par := eval(8, true)  // batched on 8 workers

	if !seq.passive.Relation.EqualContents(par.passive.Relation) {
		t.Fatal("passive result differs between sequential and batched evaluation")
	}
	if !seq.active.Relation.EqualContents(par.active.Relation) {
		t.Fatal("active result differs between sequential and batched evaluation")
	}
	if !seq.active.Actions.Equal(par.active.Actions) {
		t.Fatalf("action sets differ (Def. 9):\n  seq %s\n  par %s", seq.active.Actions, par.active.Actions)
	}
	if seq.stats != par.stats {
		t.Fatalf("invocation stats differ:\n  seq %+v\n  par %+v", seq.stats, par.stats)
	}
	// 12 passive jobs fold to 8 physical calls; 3 active deliveries fire
	// per tuple in both pipelines.
	for ref, want := range seq.counts {
		if got := par.counts[ref]; got != want {
			t.Fatalf("service %s reached %d times batched, %d sequential", ref, got, want)
		}
		if want != 1 && ref != "email" {
			t.Fatalf("service %s reached %d times sequentially, want 1", ref, want)
		}
	}
	if seq.counts["email"] != 2 || seq.counts["jabber"] != 1 {
		t.Fatalf("deliveries = %d email / %d jabber, want 2/1", seq.counts["email"], seq.counts["jabber"])
	}
	if seq.stats.Active != 3 || seq.stats.Passive != 8 || seq.stats.Memoized != 4 {
		t.Fatalf("stats = %+v, want 3 active / 8 passive / 4 memoized", seq.stats)
	}
}

// jobsTo builds one β job per ref, each with an empty input tuple.
func jobsTo(refs ...string) []algebra.InvokeJob {
	jobs := make([]algebra.InvokeJob, len(refs))
	for i, ref := range refs {
		jobs[i] = algebra.InvokeJob{Ref: ref, Input: value.Tuple{}}
	}
	return jobs
}

// TestBatchPlannerFoldsDuplicates drives InvokeAll with grouping on:
// identical (ref, input) jobs share one physical call, results fan back out
// positionally, and stats count like the sequential memo path (first dup
// passive, later dups memoized).
func TestBatchPlannerFoldsDuplicates(t *testing.T) {
	env, reg, counts := countingEnv(t, 2, 0)
	withBatchTransport(t, reg)
	ctx := query.NewContext(env, reg, 0)
	sensors := env["sensors"]
	bp, err := sensors.Schema().FindBP("getTemperature", "")
	if err != nil {
		t.Fatal(err)
	}
	jobs := jobsTo("s000", "s001", "s000", "s000", "s001")
	out := ctx.InvokeAll(bp, jobs)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		want := float64(0)
		if jobs[i].Ref == "s001" {
			want = 1
		}
		if len(r.Rows) != 1 || r.Rows[0][0].Real() != want {
			t.Fatalf("item %d (%s): rows = %v", i, jobs[i].Ref, r.Rows)
		}
	}
	if counts["s000"].Load() != 1 || counts["s001"].Load() != 1 {
		t.Fatalf("physical calls = %d/%d, want 1/1 (duplicates not folded)",
			counts["s000"].Load(), counts["s001"].Load())
	}
	if ctx.Stats.Passive != 2 || ctx.Stats.Memoized != 3 {
		t.Fatalf("stats = %+v, want 2 passive / 3 memoized", ctx.Stats)
	}
}

// batchSizeRecorder is a Batcher that records the size of every
// batch frame it receives and the number of per-item calls; with failOdd it
// fails the odd positions of each frame.
type batchSizeRecorder struct {
	ref     string
	proto   string
	failOdd bool
	mu      sync.Mutex
	frames  []int
	single  int
}

func (b *batchSizeRecorder) Ref() string                  { return b.ref }
func (b *batchSizeRecorder) PrototypeNames() []string     { return []string{b.proto} }
func (b *batchSizeRecorder) Implements(proto string) bool { return proto == b.proto }

func (b *batchSizeRecorder) row() value.Tuple {
	if b.proto == "sendMessage" {
		return value.Tuple{value.NewBool(true)}
	}
	return value.Tuple{value.NewReal(1)}
}

func (b *batchSizeRecorder) Invoke(_ context.Context, proto string, in value.Tuple, at service.Instant) ([]value.Tuple, error) {
	b.mu.Lock()
	b.single++
	b.mu.Unlock()
	return []value.Tuple{b.row()}, nil
}

func (b *batchSizeRecorder) InvokeBatch(_ context.Context, proto string, inputs []value.Tuple, _ service.Instant) []service.InvokeResult {
	b.mu.Lock()
	b.frames = append(b.frames, len(inputs))
	b.mu.Unlock()
	out := make([]service.InvokeResult, len(inputs))
	for i := range out {
		if b.failOdd && i%2 == 1 {
			out[i] = service.InvokeResult{Err: errors.New("flaky")}
			continue
		}
		out[i] = service.InvokeResult{Rows: []value.Tuple{b.row()}}
	}
	return out
}

// withBatchTransport registers a batch-capable service (a Batcher, as a
// remote proxy is) in reg, which turns the β dispatcher's grouping on.
func withBatchTransport(t *testing.T, reg *service.Registry) {
	t.Helper()
	if err := reg.Register(&batchSizeRecorder{ref: "transport", proto: "getTemperature"}); err != nil {
		t.Fatal(err)
	}
}

// recorderContext registers rec (and its prototype) in a fresh registry and
// returns a one-shot context over it with the memo off, so identical jobs
// stay distinct calls.
func recorderContext(t *testing.T, rec *batchSizeRecorder) *query.Context {
	t.Helper()
	reg := service.NewRegistry()
	for _, p := range []*schema.Prototype{device.GetTemperatureProto(), device.SendMessageProto()} {
		if err := reg.RegisterPrototype(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Register(rec); err != nil {
		t.Fatal(err)
	}
	ctx := query.NewContext(query.MapEnv{}, reg, 0)
	ctx.Memo = nil
	return ctx
}

// TestBatchChunksAtMaxBatch: a group larger than the dispatcher's frame
// bound (64 items) is dispatched in bounded frames.
func TestBatchChunksAtMaxBatch(t *testing.T) {
	rec := &batchSizeRecorder{ref: "bulk", proto: "getTemperature"}
	ctx := recorderContext(t, rec)

	bp, err := paperenv.SensorsSchema().FindBP("getTemperature", "")
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]string, 130)
	for i := range refs {
		refs[i] = "bulk"
	}
	for i, r := range ctx.InvokeAll(bp, jobsTo(refs...)) {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	if want := []int{64, 64, 2}; len(rec.frames) != 3 || rec.frames[0] != want[0] || rec.frames[1] != want[1] || rec.frames[2] != want[2] {
		t.Fatalf("frames = %v, want %v", rec.frames, want)
	}
}

// TestInvokeNeverBatchesActiveBP: each active occurrence is a distinct
// Definition 8 action and fires on its own — grouping is for passive
// binding patterns only, even with grouping on.
func TestInvokeNeverBatchesActiveBP(t *testing.T) {
	rec := &batchSizeRecorder{ref: "bulk", proto: "sendMessage"}
	ctx := recorderContext(t, rec)
	bp := schema.BindingPattern{Proto: device.SendMessageProto(), ServiceAttr: "messenger"}
	jobs := make([]algebra.InvokeJob, 3)
	for i := range jobs {
		jobs[i] = algebra.InvokeJob{Ref: "bulk", Input: value.Tuple{value.NewString(fmt.Sprintf("a%d@x", i)), value.NewString("hi")}}
	}
	for i, r := range ctx.InvokeAll(bp, jobs) {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	if len(rec.frames) != 0 {
		t.Fatalf("active BP was grouped into frames %v", rec.frames)
	}
	if rec.single != 3 || ctx.Stats.Active != 3 || ctx.Actions.Len() != 3 {
		t.Fatalf("per-job calls = %d, active = %d, actions = %d, want 3/3/3", rec.single, ctx.Stats.Active, ctx.Actions.Len())
	}
}

// TestBatchDegradationPerItem: per-item failures inside grouped frames go
// through the same degradation policies as the per-job path; an absorbed
// failure carries its cause so the delta cache won't remember it.
func TestBatchDegradationPerItem(t *testing.T) {
	build := func() (*query.Context, map[string]*atomic.Int64) {
		reg := service.NewRegistry()
		if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
			t.Fatal(err)
		}
		counts := map[string]*atomic.Int64{}
		for i := 0; i < 4; i++ {
			ref := fmt.Sprintf("s%03d", i)
			c := &atomic.Int64{}
			counts[ref] = c
			bad := i%2 == 1
			err := reg.Register(service.NewFunc(ref, map[string]service.InvokeFunc{
				"getTemperature": func(value.Tuple, service.Instant) ([]value.Tuple, error) {
					c.Add(1)
					if bad {
						return nil, errors.New("flaky")
					}
					return []value.Tuple{{value.NewReal(1)}}, nil
				},
			}))
			if err != nil {
				t.Fatal(err)
			}
		}
		withBatchTransport(t, reg)
		ctx := query.NewContext(query.MapEnv{}, reg, 0)
		return ctx, counts
	}
	bp, err := paperenv.SensorsSchema().FindBP("getTemperature", "")
	if err != nil {
		t.Fatal(err)
	}
	jobs := jobsTo("s000", "s001", "s002", "s003")

	t.Run("skip", func(t *testing.T) {
		ctx, _ := build()
		ctx.Degradation = resilience.SkipTuple
		out := ctx.InvokeAll(bp, jobs)
		for i := range jobs {
			bad := i%2 == 1
			if bad != out[i].Absorbed() {
				t.Fatalf("item %d: absorbed = %v, want %v", i, out[i].Absorbed(), bad)
			}
			if bad && (out[i].Err != nil || out[i].Rows != nil) {
				t.Fatalf("item %d: skipped item should yield no rows, no error: %+v", i, out[i])
			}
			if !bad && len(out[i].Rows) != 1 {
				t.Fatalf("item %d: rows = %v", i, out[i].Rows)
			}
		}
	})
	t.Run("nullfill", func(t *testing.T) {
		ctx, _ := build()
		ctx.Degradation = resilience.NullFill
		out := ctx.InvokeAll(bp, jobs)
		for i := range jobs {
			if i%2 == 1 {
				if !out[i].Absorbed() || len(out[i].Rows) != 1 || !out[i].Rows[0][0].IsNull() {
					t.Fatalf("item %d: want one all-NULL row, absorbed, got %+v", i, out[i])
				}
			}
		}
	})
	t.Run("failfast", func(t *testing.T) {
		ctx, counts := build()
		ctx.Degradation = resilience.FailFast
		out := ctx.InvokeAll(bp, jobs)
		if out[1].Err == nil || out[1].Cause == nil {
			t.Fatalf("failing item must carry its error: %+v", out)
		}
		if out[0].Err != nil || len(out[0].Rows) != 1 {
			t.Fatalf("one item's failure must not fail its neighbours: %+v", out)
		}
		// Sequential frames: nothing is dispatched after the fatal outcome.
		if n := counts["s002"].Load() + counts["s003"].Load(); n != 0 {
			t.Fatalf("%d dispatches after a fatal outcome, want 0", n)
		}
	})
	t.Run("failfast-in-frame", func(t *testing.T) {
		rec := &batchSizeRecorder{ref: "bulk", proto: "getTemperature", failOdd: true}
		ctx := recorderContext(t, rec)
		ctx.Degradation = resilience.FailFast
		out := ctx.InvokeAll(bp, jobsTo("bulk", "bulk", "bulk", "bulk"))
		if len(rec.frames) != 1 || rec.frames[0] != 4 {
			t.Fatalf("frames = %v, want one frame of 4", rec.frames)
		}
		if out[1].Err == nil || out[3].Err == nil {
			t.Fatalf("failing items must carry their error: %+v", out)
		}
		if out[0].Err != nil || out[2].Err != nil {
			t.Fatalf("one item's failure must not fail its frame neighbours: %+v", out)
		}
	})
}
