package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"serena/internal/cq"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// span is one timed interval recorded by the benchmark's own wrappers
// around a call into a layer. Spans of one op share its index; Parent is
// the index of the enclosing span in the recorder (-1 for an op's root).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the recorder was created
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// recorder keeps spans in memory until the run ends. It records only while
// an op is traced, so in a traced run the ops of the untraced blocks pay
// one atomic load per wrapper — that difference is bench.trace_overhead_share.
type recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
	op    int
	tick  int // index of the current op's cq.tick span (parent of wal.* spans)
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), tick: -1} }

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// add appends a finished span and returns its index.
func (r *recorder) add(name string, start, end time.Time, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
		Parent: parent, Op: r.op,
	})
	return len(r.spans) - 1
}

// open reserves a span whose end is not known yet, so children recorded
// meanwhile can name it as their parent.
func (r *recorder) open(name string, start time.Time, parent int) int {
	return r.add(name, start, start, parent)
}

func (r *recorder) close(idx int, end time.Time) {
	r.mu.Lock()
	r.spans[idx].EndNS = end.Sub(r.epoch).Nanoseconds()
	r.mu.Unlock()
}

// total sums the durations of every span of that name, in microseconds,
// and counts them.
func (r *recorder) total(name string) (us float64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Name == name {
			us += float64(s.EndNS-s.StartNS) / 1e3
			n++
		}
	}
	return us, n
}

// durationsMS lists the durations of every span of that name.
func (r *recorder) durationsMS(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

func (r *recorder) write(path string, header map[string]any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	header["spans"] = r.spans
	data, err := json.Marshal(header)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedDurability is the benchmark's view of the WAL from outside: a
// cq.Durability that forwards every call unchanged to the engine's own
// manager and, while the current op is traced, records a span around it.
type timedDurability struct {
	inner cq.Durability
	rec   *recorder
}

func (d *timedDurability) AttachRelation(x *stream.XDRelation) { d.inner.AttachRelation(x) }

func (d *timedDurability) BeginTick(at service.Instant) error {
	if !d.rec.enabled() {
		return d.inner.BeginTick(at)
	}
	start := time.Now()
	err := d.inner.BeginTick(at)
	d.rec.add("wal.begin", start, time.Now(), d.rec.tick)
	return err
}

func (d *timedDurability) CommitTick(at service.Instant) (bool, error) {
	if !d.rec.enabled() {
		return d.inner.CommitTick(at)
	}
	start := time.Now()
	due, err := d.inner.CommitTick(at)
	d.rec.add("wal.commit", start, time.Now(), d.rec.tick)
	return due, err
}

func (d *timedDurability) ActiveIntent(queryName string, node int, bp, ref string, input value.Tuple, at service.Instant) error {
	if !d.rec.enabled() {
		return d.inner.ActiveIntent(queryName, node, bp, ref, input, at)
	}
	start := time.Now()
	err := d.inner.ActiveIntent(queryName, node, bp, ref, input, at)
	d.rec.add("wal.intent", start, time.Now(), d.rec.tick)
	return err
}

func (d *timedDurability) ActiveResult(queryName string, node int, bp, ref string, input value.Tuple, at service.Instant, ok bool, rows []value.Tuple) error {
	if !d.rec.enabled() {
		return d.inner.ActiveResult(queryName, node, bp, ref, input, at, ok, rows)
	}
	start := time.Now()
	err := d.inner.ActiveResult(queryName, node, bp, ref, input, at, ok, rows)
	d.rec.add("wal.result", start, time.Now(), d.rec.tick)
	return err
}
