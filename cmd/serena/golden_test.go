package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// durRe matches rendered wall-clock durations (EXPLAIN ANALYZE timings),
// the only non-deterministic part of a scripted session: the demo devices
// are deterministic in (service, instant).
var durRe = regexp.MustCompile(`(?:\d+(?:\.\d+)?(?:ns|µs|us|ms|s))+`)

// scrub normalizes run-dependent output so transcripts are reproducible.
func scrub(s string) string {
	return durRe.ReplaceAllString(s, "<dur>")
}

// TestShellGolden runs a scripted shell session — DDL with REGISTER QUERY …
// ON ERROR, one-shot SQL and SAL with β invocations, EXPLAIN ANALYZE,
// .explain, .stats — and compares the transcript against
// testdata/shell.golden. Regenerate with `go test ./cmd/serena -update`.
func TestShellGolden(t *testing.T) {
	p := demoPEMS(t)
	script := strings.Join([]string{
		`REGISTER QUERY hot ON ERROR SKIP AS select[temperature > 28.0](invoke[getTemperature](sensors));`,
		`.queries`,
		`SELECT name, address FROM contacts WHERE name <> "Carla"`,
		`invoke[checkPhoto](select[area = "office"](cameras))`,
		`.explain select[area = "office"](invoke[checkPhoto](cameras))`,
		`EXPLAIN select[area = "office"](invoke[checkPhoto](cameras))`,
		`EXPLAIN ANALYZE project[photo](invoke[takePhoto](select[quality >= 5](invoke[checkPhoto](select[area = "office"](cameras)))))`,
		`.tick 2`,
		`.stats`,
		`UNREGISTER QUERY hot;`,
		`REGISTER QUERY hot ON ERROR NULL AS select[temperature > 28.0](invoke[getTemperature](sensors));`,
		`.stats hot`,
		`.quit`,
	}, "\n") + "\n"

	var buf bytes.Buffer
	repl(p, strings.NewReader(script), &buf)
	got := scrub(buf.String())

	golden := filepath.Join("testdata", "shell.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/serena -update` to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("shell transcript drifted from %s (re-run with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}
