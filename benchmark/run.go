package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// config is one invocation's arguments.
type config struct {
	seed     uint64
	seconds  int  // scales every op count; defaultSeconds gives the documented sizes
	trace    bool // traced run: per-layer metrics instead of end-to-end ones
	pinNaive bool // sensitivity check: pin every continuous query to the naive evaluator
	outDir   string
	maxOps   int  // > 0 caps warm-up and timed ops (the smoke tests use it)
	noProbes bool // a traced run skips the layer probes (the smoke tests again)
}

const defaultSeconds = 10

// scaled sizes an op count for the requested run length. Runs are sized in
// ops, not seconds: state that grows with the number of instants run
// (checkpoint size, retained events) is then the same in every run of one
// commit, and --seconds only selects how many ops that is.
func (c config) scaled(n int) int {
	n = n * c.seconds / defaultSeconds
	if c.maxOps > 0 && n > c.maxOps {
		n = c.maxOps
	}
	return max(n, 1)
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	name() string
	// build makes a fresh environment from the seed and runs the warm-up
	// ops; when it returns the next op is timed op 0.
	build(r *run) error
	// timedOps is how many ops the timed section has.
	timedOps() int
	// traceBlock is the period of the workload's load in ops (checkpoint
	// cadence, query cycle). In a traced run every other op is traced, and
	// the parity flips at each block, so that traced and untraced ops see
	// the same state, the same machine and the same mix of work — every
	// second checkpoint tick, each query text equally often — and
	// bench.trace_overhead_share compares like with like.
	traceBlock() int
	// op runs timed op i and reports an engine error as a failed op.
	op(i int) error
	// after runs between ops, outside the op timer: it snapshots what the
	// correctness checks compare and, after a traced op, reads the
	// engine's public accessors.
	after(i int, traced bool)
	// finish runs what follows the timed section (recovery, twin runs),
	// compares everything against the reference and fills r.layer.
	finish(r *run)
	// close tears the environment down.
	close()
}

// checkpointEvery is the WAL workloads' checkpoint cadence in instants,
// and the continuous workloads' trace block: every block then holds one
// checkpoint tick.
const checkpointEvery = 50

// run is the state of one workload run.
type run struct {
	cfg  config
	rec  *recorder // nil unless cfg.trace
	stub *stubs

	failed   int
	failures []string // the first few, for the report

	opMS     []float64 // duration of every timed op
	traced   int       // how many of them ran with tracing on
	converge []float64 // discovery convergence of every set-up, ms
	polls    int
	e2e      map[string]float64
	layer    map[string]float64
	samples  map[string]int
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) dataDir(name string) string {
	return filepath.Join(r.cfg.outDir, "data", fmt.Sprintf("%s-%d-%d", name, os.Getpid(), time.Now().UnixNano()))
}

// setLayer records a per-layer metric with the number of samples behind it.
func (r *run) setLayer(name string, v float64, samples int) {
	r.layer[name] = v
	r.samples[name] = samples
}

// converged notes one discovery convergence (Node.Start or re-announce →
// every reference visible in the core registry).
func (r *run) converged(elapsed time.Duration, polls int) {
	r.converge = append(r.converge, float64(elapsed.Nanoseconds())/1e6)
	r.polls += polls
}

const setupRepeats = 3

// measure runs one workload: set-up (repeated, median reported), the timed
// closed loop of one driver goroutine, then the workload's own finish.
func measure(w workload, cfg config) (*run, error) {
	r := &run{cfg: cfg, e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
	if cfg.trace {
		r.rec = newRecorder()
	}
	// Set-up is cheap next to the timed section but noisy, so it is done
	// several times and the median reported; the last environment is kept.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.build(r); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()
	r.e2e["setup_s"] = median(setups)

	n := w.timedOps()
	r.opMS = make([]float64, 0, n)
	var tracedMS, untracedMS []float64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpuBefore := processCPU()
	sectionStart := time.Now()
	for i := 0; i < n; i++ {
		traced := cfg.trace && (i%w.traceBlock()+i/w.traceBlock())%2 == 0
		if r.rec != nil {
			r.rec.on.Store(traced)
			r.rec.op = i
		}
		if r.stub != nil {
			r.stub.timing.Store(traced)
		}
		start := time.Now()
		err := w.op(i)
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		r.opMS = append(r.opMS, ms)
		if traced {
			tracedMS = append(tracedMS, ms)
		} else {
			untracedMS = append(untracedMS, ms)
		}
		if err != nil {
			r.fail("op %d: %v", i, err)
		}
		w.after(i, traced)
	}
	wall := time.Since(sectionStart).Seconds()
	cpu := processCPU() - cpuBefore
	runtime.ReadMemStats(&after)
	if r.rec != nil {
		r.rec.on.Store(false)
	}
	if r.stub != nil {
		r.stub.timing.Store(false)
	}

	ops := float64(n)
	sorted := sortedCopy(r.opMS)
	r.e2e["ops_per_s"] = ops / wall
	r.e2e["op_ms_p50"] = percentile(sorted, 50)
	r.e2e["op_ms_p99"] = percentile(sorted, tailPercentile(n))
	r.e2e["cpu_ms_per_op"] = float64(cpu.Nanoseconds()) / 1e6 / ops
	r.e2e["allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
	r.e2e["alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / ops
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	r.e2e["heap_mb_end"] = float64(end.HeapAlloc) / (1 << 20)

	r.setLayer("runtime.gc_cycles_per_kop", float64(after.NumGC-before.NumGC)/ops*1000, n)
	r.setLayer("runtime.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, int(after.NumGC-before.NumGC))
	r.traced = len(tracedMS)
	if r.traced > 0 && len(untracedMS) > 0 {
		r.setLayer("bench.trace_overhead_share", median(tracedMS)/median(untracedMS)-1, r.traced)
	}

	w.finish(r)
	if cfg.trace && !cfg.noProbes {
		runProbes(r, w.name())
	}
	if len(r.converge) > 0 {
		r.setLayer("discovery.converge_ms", median(r.converge), len(r.converge))
		r.setLayer("discovery.converge_polls", float64(r.polls)/float64(len(r.converge)), len(r.converge))
	}
	return r, nil
}

// processCPU is the user and system CPU time the process has used so far,
// on every thread: the driver, the collector and the edge node's server.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tailPercentile is the highest of 99, 95, 90 that n samples support with
// ten samples beyond it; every named workload has the ≥ 1 000 ops p99 needs,
// shorter (smoke, scaled-down) runs fall back rather than report a maximum.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90} {
		if supportedTail(n, p) {
			return p
		}
	}
	return 50
}
