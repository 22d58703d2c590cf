package pems_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"serena/internal/pems"
	"serena/internal/service"
	"serena/internal/value"
	"serena/internal/wal"
)

// retentionTables declares a stream read through windows, an INTO cascade
// (recent → latest → zoned) and two finite outputs without INTO (zoned,
// hot). No query declares RETAIN.
const retentionTables = `
EXTENDED STREAM readings ( sensor STRING, temp INTEGER );
EXTENDED RELATION zones ( sensor STRING, zone STRING );
INSERT INTO zones VALUES ("s0", "north"), ("s1", "south");
REGISTER QUERY recent INTO latest AS window[3](readings);
REGISTER QUERY zoned AS join(zones, latest);
REGISTER QUERY hot AS select[temp > 10](window[5](readings));
`

// retentionPEMS opens a durable PEMS on dir whose source inserts two fresh
// readings into the stream every instant, so every output churns and the
// stream never repeats a tuple. The tables are created on a fresh dir and
// recovered otherwise.
func retentionPEMS(t *testing.T, dir string, checkpointEvery int) *pems.PEMS {
	t.Helper()
	p := pems.New()
	if err := p.EnableDurability(dir, wal.Options{Fsync: wal.SyncOff, CheckpointEvery: checkpointEvery}); err != nil {
		t.Fatal(err)
	}
	p.Executor().AddSource(func(at service.Instant) error {
		x, ok := p.Executor().Relation("readings")
		if !ok {
			return nil
		}
		for i, s := range []string{"s0", "s1"} {
			if err := x.Insert(at, value.Tuple{value.NewString(s), value.NewInt(int64(at) + int64(i)*1_000_000)}); err != nil {
				return err
			}
		}
		return nil
	})
	info, err := p.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.Fresh {
		if err := p.ExecuteDDL(retentionTables); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// retainedTuples sums, over every relation of the executor's checkpoint
// state, the retained events and the multiset entries.
func retainedTuples(p *pems.PEMS) int {
	n := 0
	for _, rs := range p.Executor().Snapshot().Relations {
		n += len(rs.Events) + len(rs.Current)
	}
	return n
}

// TestStateDoesNotGrowWithTheRun: once every log has reached its retention
// horizon, running four times as many instants leaves the checkpoint file
// and the retained state the same size. A stream multiset, or a finite
// output log without a default retention, would grow both linearly with
// the number of instants run.
func TestStateDoesNotGrowWithTheRun(t *testing.T) {
	const n = 300 // > DefaultDerivedRetention, a multiple of checkpointEvery
	dir := t.TempDir()
	p := retentionPEMS(t, dir, 50)
	defer p.Close()
	measure := func(instants int) (bytes int64, tuples int) {
		t.Helper()
		if err := p.Executor().RunUntil(service.Instant(instants - 1)); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, "checkpoint"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size(), retainedTuples(p)
	}
	bytesN, tuplesN := measure(n)
	bytes4N, tuples4N := measure(4 * n)
	if float64(bytes4N) > 1.1*float64(bytesN) {
		t.Errorf("checkpoint = %d bytes after %d instants, %d after %d: grows with the run", bytesN, n, bytes4N, 4*n)
	}
	if float64(tuples4N) > 1.1*float64(tuplesN) {
		t.Errorf("retained tuples = %d after %d instants, %d after %d: grows with the run", tuplesN, n, tuples4N, 4*n)
	}
}

// upgradeFixture is a data directory written by commit 4de0491, the last
// version whose streams kept a current multiset: retentionPEMS(t, dir, 10)
// run to instant 24 and abandoned without Close. Its checkpoint (instant
// 19) carries the stream's multiset and a trimmed stream log; the log tail
// holds instants 20-24. The golden file next to it is what
// TestRecoverDataDirOfEarlierVersion renders at that commit, on recovery
// and after one more tick.
const upgradeFixture = "testdata/upgrade-4de0491"

// renderUpgrade lists the recovered clock, every finite relation's
// contents and the stream's retained events.
func renderUpgrade(t *testing.T, p *pems.PEMS) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "now %d\n", p.Executor().Now())
	for _, name := range []string{"zones", "latest", "zoned", "hot"} {
		x, ok := p.Executor().Relation(name)
		if !ok {
			t.Fatalf("relation %s not recovered", name)
		}
		for _, tu := range x.Current() {
			fmt.Fprintf(&b, "%s %s\n", name, tu)
		}
	}
	x, ok := p.Executor().Relation("readings")
	if !ok {
		t.Fatal("stream readings not recovered")
	}
	for _, ev := range x.EventsIn(-1, x.LastInstant()) {
		fmt.Fprintf(&b, "readings @%d %s\n", ev.At, ev.Tuple)
	}
	return b.String()
}

// TestRecoverDataDirOfEarlierVersion: a data directory whose checkpoint
// still carries a stream multiset recovers unchanged — same finite
// relations, same retained stream events, same next tick — so dropping the
// multiset needed no checkpoint format change.
func TestRecoverDataDirOfEarlierVersion(t *testing.T) {
	want, err := os.ReadFile(upgradeFixture + ".golden")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyDir(t, upgradeFixture, dir)
	p := retentionPEMS(t, dir, 10)
	defer p.Close()
	got := renderUpgrade(t, p)
	if _, err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	got += "--- next tick\n" + renderUpgrade(t, p)
	if got != string(want) {
		t.Fatalf("recovered state differs from the writing version's:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
