// Command benchmark is serenabench: the end-to-end benchmark of the PEMS
// engine. It drives the engine only through its packages' public functions,
// owns its load (inputs come from -seed, services are its own stubs), and
// measures four workloads in a closed loop of one driver goroutine.
//
//	go run ./benchmark                              every workload, timed then traced
//	go run ./benchmark -workload oneshot -trace 1   one traced run
//	go run ./benchmark -compare a.json b.json       check b against a's bounds
//
// See README.md in this directory for the metric dictionary.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: surveillance, remote_beta, window_churn, oneshot, or all")
		seed         = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Int("seconds", defaultSeconds, "run length; op counts scale with it (10 gives the documented sizes)")
		trace        = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: timed run reporting the end-to-end ones")
		pin          = flag.Bool("pin-naive", false, "sensitivity check: pin every continuous query to the naive evaluator")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for results, traces and scratch data")
		doCompare    = flag.Bool("compare", false, "compare two results files: -compare base.json new.json")
	)
	flag.Parse()
	// The engine logs recoveries and fallbacks at Info; keep the output to
	// the metrics.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))

	if *doCompare {
		os.Exit(runCompare(flag.Args()))
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "-seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, pinNaive: *pin, outDir: *outDir}
	res := resultsFile{Fingerprint: readFingerprint(), Seed: cfg.seed, Seconds: cfg.seconds, PinNaive: cfg.pinNaive}

	failed := false
	runOne := func(def workloadDef, cfg config) runReport {
		r, err := measure(def.New(cfg), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rep := r.report(def.Name)
		rep.print(os.Stdout)
		if r.rec != nil {
			path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s.json", def.Name))
			header := map[string]any{"workload": def.Name, "seed": cfg.seed, "fingerprint": res.Fingerprint}
			if err := r.rec.write(path, header); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		res.Runs = append(res.Runs, rep)
		failed = failed || rep.Failed > 0
		return rep
	}

	name := fmt.Sprintf("results-%d.json", cfg.seed)
	var last runReport
	if *workloadName == "all" {
		for _, def := range workloads {
			timed, traced := cfg, cfg
			timed.trace, traced.trace = false, true
			runOne(def, timed)
			last = runOne(def, traced)
		}
	} else {
		def, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		last = runOne(def, cfg)
		name = fmt.Sprintf("results-%d-%s-trace%d.json", cfg.seed, def.Name, *trace)
	}
	if err := writeResults(filepath.Join(cfg.outDir, name), res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(last.summaryLine())
	if failed {
		os.Exit(1)
	}
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: -compare base.json new.json")
		return 2
	}
	base, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	next, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if !compare(os.Stdout, base, next) {
		return 1
	}
	return 0
}
