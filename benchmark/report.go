package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies where numbers were measured. It is copied into
// every results file; -compare refuses to compare timings across different
// fingerprints and then compares only the portable counts.
type fingerprint struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func (f fingerprint) sameMachine(o fingerprint) bool {
	return f.Go == o.Go && f.GOMAXPROCS == o.GOMAXPROCS && f.NumCPU == o.NumCPU && f.CPU == o.CPU
}

func readFingerprint() fingerprint {
	f := fingerprint{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				f.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	f.Commit = headCommit(".git")
	return f
}

// headCommit reads the checked-out commit from a git directory without
// running git; a checkout that is not a repository has no commit to name.
func headCommit(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref // detached: HEAD holds the hash
	}
	if hash, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(hash))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return hash
		}
	}
	return "unknown"
}

type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runReport is one workload run as it is stored in a results file.
type runReport struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type resultsFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seed        uint64      `json:"seed"`
	Seconds     int         `json:"seconds"`
	PinNaive    bool        `json:"pin_naive,omitempty"`
	Runs        []runReport `json:"runs"`
}

// report selects the metrics the run's mode reports: the end-to-end ones
// from a timed run, every per-layer one from a traced run.
func (r *run) report(workload string) runReport {
	rep := runReport{
		Workload: workload, Trace: r.cfg.trace,
		Attempted: len(r.opMS), Failed: r.failed, Failures: r.failures,
		Metrics: map[string]metricValue{},
	}
	if r.cfg.trace {
		for _, d := range perLayer {
			rep.Metrics[d.Name] = metricValue{Value: r.layer[d.Name], Unit: d.Unit, Samples: r.samples[d.Name]}
		}
		return rep
	}
	for _, d := range endToEnd {
		rep.Metrics[d.Name] = metricValue{Value: r.e2e[d.Name], Unit: d.Unit, Samples: len(r.opMS)}
	}
	return rep
}

// print writes every metric of the run by name, with unit and sample count.
func (rep runReport) print(w io.Writer) {
	mode := "timed"
	defs := endToEnd
	if rep.Trace {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "== %s (%s): %d ops attempted, %d failed\n", rep.Workload, mode, rep.Attempted, rep.Failed)
	for _, d := range defs {
		m := rep.Metrics[d.Name]
		fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", d.Name, m.Value, m.Unit, m.Samples)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// summaryLine is the one JSON object a driver reads from the last line of
// standard output.
func (rep runReport) summaryLine() string {
	type summaryMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]summaryMetric `json:"metrics"`
	}{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]summaryMetric{}}
	for name, m := range rep.Metrics {
		out.Metrics[name] = summaryMetric{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(data)
}

func writeResults(path string, res resultsFile) error {
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (resultsFile, error) {
	var res resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// compare prints, for every end-to-end metric of every workload timed in
// both files, the ratio new/base with its base against the metric's bound,
// and reports whether every one stays inside it. Across machines only the
// portable counts are compared; timings are refused.
func compare(w io.Writer, base, next resultsFile) bool {
	sameMachine := base.Fingerprint.sameMachine(next.Fingerprint)
	if !sameMachine {
		fmt.Fprintf(w, "different machines (%s / %s): timings refused, comparing allocation counts only\n",
			base.Fingerprint.CPU, next.Fingerprint.CPU)
	}
	ok := true
	compared := 0
	for _, b := range base.Runs {
		if b.Trace {
			continue
		}
		for _, n := range next.Runs {
			if n.Trace || n.Workload != b.Workload {
				continue
			}
			if n.Failed > b.Failed {
				fmt.Fprintf(w, "%-14s failed ops rose from %d to %d  OUTSIDE\n", b.Workload, b.Failed, n.Failed)
				ok = false
			}
			for _, d := range endToEnd {
				if !sameMachine && !d.Portable {
					continue
				}
				bv, nv := b.Metrics[d.Name].Value, n.Metrics[d.Name].Value
				if bv == 0 {
					continue
				}
				worse := nv/bv - 1
				if d.Better == "higher" {
					worse = 1 - nv/bv
				}
				verdict := "inside"
				if worse > d.Bound {
					verdict, ok = "OUTSIDE", false
				}
				fmt.Fprintf(w, "%-14s %-16s %12.4f / %12.4f %-5s = %.4f  worse by %+.2f%% (bound %.0f%%)  %s\n",
					b.Workload, d.Name, nv, bv, d.Unit, nv/bv, worse*100, d.Bound*100, verdict)
				compared++
			}
		}
	}
	if compared == 0 {
		fmt.Fprintln(w, "nothing to compare: the files share no timed workload")
		return false
	}
	return ok
}
