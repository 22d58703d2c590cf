package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"serena/internal/cq"
	"serena/internal/pems"
	"serena/internal/wal"
)

// surveillance is the representative tick with every layer on: pushed
// readings through the bounded ingest buffer, three windowed/derived INTO
// relations, an ACTIVE and a passive β reaching stubs on the edge node over
// the wire, an output stream, the WAL with periodic checkpoints, and
// self-telemetry — then a crash-recovery phase on a copy of the data dir.
type surveillance struct {
	warm, timed int

	load  *pushLoad
	edge  *edgeNode
	core  *pems.PEMS
	dir   string
	crash string // copy of dir the recovery phase runs on
	push  *pusher
	probe *tickProbe

	checks []windowCheck
}

const (
	survSensors    = 512
	survPerInstant = 256
	survWindow     = 8
	survContacts   = 128
)

var survQueries = []string{"rollup", "rollmeans", "rollhot", "alerts", "quality", "feed"}

const survStreamDDL = `
EXTENDED STREAM temperatures ( sensor SERVICE, location STRING, temperature REAL )
  ON OVERLOAD BLOCK CAPACITY 1024;
`

const survQueriesDDL = `
REGISTER QUERY rollup INTO hot RETAIN 8 INSTANTS AS
  select[temperature > 28.0](window[8](temperatures));
REGISTER QUERY rollmeans INTO means RETAIN 8 INSTANTS AS
  aggregate[mean(temperature) as avgtemp by location](window[8](temperatures));
REGISTER QUERY rollhot INTO hotlocs RETAIN 8 INSTANTS AS
  project[location](select[avgtemp > 24.0](means));
REGISTER QUERY alerts AS
  invoke[sendMessage](assign[text := "Temperature alert!"](join(contacts, join(surveillance, hotlocs))));
REGISTER QUERY quality AS
  invoke[checkPhoto](join(cameras, rename[location -> area](project[location](hot))));
REGISTER QUERY feed AS
  stream[insertion](project[sensor, location](hot));
`

func newSurveillance(cfg config) *surveillance {
	// 125 + 1 000 instants: the last checkpoint falls 25 instants before
	// the end, so recovery has a log tail to replay.
	return &surveillance{warm: cfg.scaled(125), timed: cfg.scaled(1000)}
}

func (w *surveillance) name() string    { return "surveillance" }
func (w *surveillance) timedOps() int   { return w.timed }
func (w *surveillance) traceBlock() int { return checkpointEvery }

func (w *surveillance) build(r *run) error {
	// One instant more than the run: the first tick after recovery.
	w.load = genPushLoad(r.cfg.seed, survSensors, survPerInstant, w.warm+w.timed+1)
	r.stub = &stubs{seed: r.cfg.seed}
	var err error
	if w.edge, err = startEdge(r.stub.services(0, numLocations, 2)); err != nil {
		return err
	}
	w.dir = r.dataDir("surveillance")
	w.checks = nil
	if w.core, w.probe, err = w.open(r, w.dir); err != nil {
		return err
	}
	ddl := tablesDDL + survStreamDDL + tableRowsDDL(survContacts, 2) + survQueriesDDL
	if err := w.core.ExecuteDDL(ddl); err != nil {
		return err
	}
	if err := pinNaive(w.core, r.cfg); err != nil {
		return err
	}
	w.push = newPusher(w.core, w.load, r.rec)
	for t := 0; t < w.warm; t++ {
		if err := w.push.instant(t); err != nil {
			return fmt.Errorf("warm-up instant %d: %w", t, err)
		}
	}
	w.probe.startSection()
	return nil
}

// open brings a core PEMS up on a data directory, fresh or not, in the
// order an embedder must: durability, telemetry and code registrations
// first, then Recover.
func (w *surveillance) open(r *run, dir string) (*pems.PEMS, *tickProbe, error) {
	core := w.edge.newCore()
	if err := registerPrototypes(core.Registry()); err != nil {
		return core, nil, err
	}
	if err := core.EnableDurability(dir, wal.Options{Fsync: wal.SyncInterval, CheckpointEvery: checkpointEvery}); err != nil {
		return core, nil, err
	}
	probe := newTickProbe(r, core, dir, survQueries)
	if _, err := core.EnableSelfTelemetry(cq.TelemetryOptions{}); err != nil {
		return core, nil, err
	}
	elapsed, polls, err := w.edge.converge(core)
	if err != nil {
		return core, nil, err
	}
	r.converged(elapsed, polls)
	info, err := core.Recover()
	if err != nil {
		return core, nil, err
	}
	if !info.Fresh {
		r.setLayer("wal.replay_records", float64(info.Records), info.Ticks)
	}
	return core, probe, nil
}

func (w *surveillance) op(i int) error { return w.push.instant(w.warm + i) }

func (w *surveillance) after(i int, traced bool) {
	t := w.warm + i
	w.probe.afterOp(i, traced)
	if t%checkEvery == 0 {
		w.checks = append(w.checks, snapshotWindow(w.core, t, "means", "hot"))
	}
}

func (w *surveillance) finish(r *run) {
	end := w.warm + w.timed // the next instant to run
	w.probe.report()
	w.push.report(r)
	checkInvokeErrors(r, w.core, survQueries)

	for _, c := range w.checks {
		c.verify(r, w.load, survWindow)
	}
	// The reference action log up to and including the first instant after
	// recovery; that instant's alerts come last.
	alerts := w.expectedAlerts(end + 1)
	before := alerts
	for len(before) > 0 && before[len(before)-1].at == end {
		before = before[:len(before)-1]
	}
	checkDeliveries(r, r.stub.deliveryLog(), before, "before recovery")

	// Crash: copy the data directory at this instant boundary — no final
	// checkpoint — and bring a fresh PEMS up on the copy.
	preMeans, preHot := relationKeys(w.core, "means"), relationKeys(w.core, "hot")
	w.crash = w.dir + "-crash"
	if err := copyDir(w.dir, w.crash); err != nil {
		r.fail("copying data dir: %v", err)
		return
	}
	w.core.Close()
	w.core = nil

	logBefore := len(r.stub.deliveryLog())
	start := time.Now()
	core, _, err := w.open(r, w.crash)
	w.core = core
	if err != nil {
		r.fail("recovery: %v", err)
		return
	}
	recoverS := time.Since(start).Seconds()
	if got := relationKeys(core, "means"); !equalKeys(got, preMeans) {
		r.fail("recovery: means has %d rows, %d before the crash, or differs", len(got), len(preMeans))
	}
	if got := relationKeys(core, "hot"); !equalKeys(got, preHot) {
		r.fail("recovery: hot has %d rows, %d before the crash, or differs", len(got), len(preHot))
	}
	if n := len(r.stub.deliveryLog()); n != logBefore {
		r.fail("recovery: delivery log grew from %d to %d (at-most-once broken)", logBefore, n)
	}
	// Recovery ends when the first tick after it returns.
	start = time.Now()
	w.push = newPusher(core, w.load, nil)
	if err := w.push.instant(end); err != nil {
		r.fail("first tick after recovery: %v", err)
	}
	recoverS += time.Since(start).Seconds()
	r.setLayer("wal.recover_ms", recoverS*1e3, 1)
	checkDeliveries(r, r.stub.deliveryLog(), alerts, "after recovery")
}

// expectedAlerts is the reference action log of instants [0, end): a
// contact is messaged at the instant its location enters hotlocs.
func (w *surveillance) expectedAlerts(end int) []delivery {
	var out []delivery
	var prev [numLocations]bool
	for t := 0; t < end; t++ {
		means, _ := w.load.windowStats(t, survWindow)
		for l, m := range means {
			hot := !math.IsNaN(m) && m > hotMean
			if hot && !prev[l] {
				for _, c := range contactsOf(l, survContacts) {
					out = append(out, delivery{addr: contactAddr(c), at: t})
				}
			}
			prev[l] = hot
		}
	}
	return out
}

func (w *surveillance) close() {
	if w.core != nil {
		w.core.Close()
		w.core = nil
	}
	if w.edge != nil {
		w.edge.stop()
		w.edge = nil
	}
	for _, dir := range []string{w.dir, w.crash} {
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
}

// checkDeliveries compares the messenger stubs' log with the reference:
// the same (address, instant) pairs, none twice.
func checkDeliveries(r *run, got, want []delivery, when string) {
	less := func(d []delivery) func(i, j int) bool {
		return func(i, j int) bool {
			if d[i].at != d[j].at {
				return d[i].at < d[j].at
			}
			return d[i].addr < d[j].addr
		}
	}
	got = append([]delivery(nil), got...)
	sort.Slice(got, less(got))
	sort.Slice(want, less(want))
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			r.fail("%s: message to %s at instant %d delivered twice", when, got[i].addr, got[i].at)
		}
	}
	if len(got) != len(want) {
		r.fail("%s: %d messages delivered, reference has %d", when, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			r.fail("%s: delivery %d is %v, reference has %v", when, i, got[i], want[i])
			return
		}
	}
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// relationKeys is the sorted identity of a relation's current contents.
func relationKeys(p *pems.PEMS, name string) []string {
	x, ok := p.Executor().Relation(name)
	if !ok {
		return nil
	}
	var keys []string
	for _, t := range x.Current() {
		keys = append(keys, t.Key())
	}
	sort.Strings(keys)
	return keys
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
