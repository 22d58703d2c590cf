package main

import (
	"path/filepath"
	"strings"
	"testing"
)

const (
	deltaArm = "BenchmarkDeltaInvocation/delta"
	naiveArm = "BenchmarkDeltaInvocation/naive"
)

func TestAssertFasterHolds(t *testing.T) {
	rep := report(map[string]float64{
		deltaArm + "/n=64":  90,
		deltaArm + "/n=1k":  300,
		deltaArm + "/n=16k": 5000,
		naiveArm + "/n=64":  180,
		naiveArm + "/n=1k":  2800,
		naiveArm + "/n=16k": 65000,
	})
	if errs := AssertFaster(rep, deltaArm, naiveArm); len(errs) != 0 {
		t.Fatalf("winning sweep flagged: %v", errs)
	}
}

func TestAssertFasterFlagsSlowOrTiedPoints(t *testing.T) {
	rep := report(map[string]float64{
		deltaArm + "/n=64":  90,
		deltaArm + "/n=1k":  2800,  // tied → fails (must be strictly faster)
		deltaArm + "/n=16k": 70000, // slower → fails
		naiveArm + "/n=64":  180,
		naiveArm + "/n=1k":  2800,
		naiveArm + "/n=16k": 65000,
	})
	errs := AssertFaster(rep, deltaArm, naiveArm)
	if len(errs) != 2 {
		t.Fatalf("errors = %v, want the tied and the slower point", errs)
	}
}

func TestAssertFasterFailsOnBrokenSweep(t *testing.T) {
	// A missing counterpart is a failure, not a skip: the arms must cover
	// the same sizes or the gate proves nothing.
	rep := report(map[string]float64{
		deltaArm + "/n=64": 90,
		naiveArm + "/n=1k": 2800,
	})
	if errs := AssertFaster(rep, deltaArm, naiveArm); len(errs) != 1 || !strings.Contains(errs[0], "counterpart") {
		t.Fatalf("errors = %v, want one missing-counterpart failure", errs)
	}

	// A report where the fast arm never ran must fail too.
	rep = report(map[string]float64{naiveArm + "/n=64": 180})
	if errs := AssertFaster(rep, deltaArm, naiveArm); len(errs) != 1 || !strings.Contains(errs[0], "did not run") {
		t.Fatalf("errors = %v, want one sweep-did-not-run failure", errs)
	}
}

func TestRunFasterGate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	writeReport(t, path, report(map[string]float64{
		deltaArm + "/n=64": 90,
		naiveArm + "/n=64": 180,
	}))
	if code := runFaster(path, deltaArm+"<"+naiveArm); code != 0 {
		t.Fatalf("winning sweep failed the gate (exit %d)", code)
	}
	writeReport(t, path, report(map[string]float64{
		deltaArm + "/n=64": 900,
		naiveArm + "/n=64": 180,
	}))
	if code := runFaster(path, deltaArm+"<"+naiveArm); code != 1 {
		t.Fatalf("losing sweep passed the gate (exit %d)", code)
	}
	if code := runFaster(path, "malformed-spec"); code != 1 {
		t.Fatalf("malformed spec accepted (exit %d)", code)
	}
}
