package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"serena/internal/algebra"
	"serena/internal/pems"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
	"serena/internal/wal"
)

// remoteBeta is the paper's own §5.2 pair of queries with every service on
// the edge node: a poll stream of 64 sequential round trips per instant, an
// ACTIVE β (each firing takes the WAL intent → call → result path) and a
// chain of two passive βs whose second returns a 4 KiB photo.
type remoteBeta struct {
	warm, timed int

	polled polledEnv
}

const (
	remoteSensors  = numLocations // one sensor and one camera per location
	remoteContacts = 128
	coldReading    = 20 * tempQuantum // σ temperature < 20
	twinInstants   = 500
)

var remoteQueries = []string{"alerts", "photos"}

const remoteQueriesDDL = `
REGISTER QUERY alerts AS
  invoke[sendMessage](assign[text := "Temperature alert!"](join(contacts,
    join(surveillance, select[temperature > 28.0](window[1](temperatures))))));
REGISTER QUERY photos AS
  stream[insertion](project[photo](invoke[takePhoto](invoke[checkPhoto](
    join(cameras, rename[location -> area](select[temperature < 20.0](window[1](temperatures))))))));
`

func newRemoteBeta(cfg config) *remoteBeta {
	return &remoteBeta{warm: cfg.scaled(100), timed: cfg.scaled(1500)}
}

func (w *remoteBeta) name() string    { return "remote_beta" }
func (w *remoteBeta) timedOps() int   { return w.timed }
func (w *remoteBeta) traceBlock() int { return checkpointEvery }

func (w *remoteBeta) build(r *run) error {
	r.stub = &stubs{seed: r.cfg.seed}
	return w.polled.build(r, r.stub, true, w.warm)
}

func (w *remoteBeta) op(int) error { return w.polled.tick() }

func (w *remoteBeta) after(i int, traced bool) { w.polled.probe.afterOp(i, traced) }

func (w *remoteBeta) finish(r *run) {
	w.polled.probe.report()
	w.polled.verify(r, r.stub, w.warm+w.timed)
	if r.rec == nil {
		return
	}
	// The twin: the same stubs registered in the core's own registry, so
	// the same instants run without the wire. Its spans are not kept.
	r.rec.on.Store(false)
	stub := &stubs{seed: r.cfg.seed}
	var twin polledEnv
	defer twin.close()
	n := min(twinInstants, w.timed)
	if err := twin.build(r, stub, false, w.warm); err != nil {
		r.fail("local twin: %v", err)
		return
	}
	ms := make([]float64, n)
	for i := range ms {
		start := time.Now()
		if err := twin.tick(); err != nil {
			r.fail("local twin op %d: %v", i, err)
		}
		ms[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	twin.verify(r, stub, w.warm+n)
	remote := median(r.opMS[:n])
	r.setLayer("wire.added_us_per_op", (remote-median(ms))*1e3, n)
}

func (w *remoteBeta) close() { w.polled.close() }

// polledEnv is remote_beta's environment, with the stubs either behind the
// edge node's wire server or registered locally (the twin).
type polledEnv struct {
	edge  *edgeNode
	core  *pems.PEMS
	dir   string
	rec   *recorder
	probe *tickProbe

	photoRows int // rows the photos stream emitted
}

func (e *polledEnv) build(r *run, stub *stubs, remote bool, warm int) error {
	svcs := stub.services(remoteSensors, numLocations, 2)
	var err error
	if remote {
		if e.edge, err = startEdge(svcs); err != nil {
			return err
		}
		e.core = e.edge.newCore()
		e.rec = r.rec
	} else {
		e.core = pems.New()
	}
	if err := registerPrototypes(e.core.Registry()); err != nil {
		return err
	}
	e.dir = r.dataDir("remote_beta")
	if err := e.core.EnableDurability(e.dir, wal.Options{Fsync: wal.SyncInterval, CheckpointEvery: checkpointEvery}); err != nil {
		return err
	}
	if remote {
		e.probe = newTickProbe(r, e.core, e.dir, remoteQueries)
		elapsed, polls, err := e.edge.converge(e.core)
		if err != nil {
			return err
		}
		r.converged(elapsed, polls)
	} else {
		for _, s := range svcs {
			if err := e.core.Registry().Register(s); err != nil {
				return err
			}
		}
	}
	_, err = e.core.AddPollStream("temperatures", "getTemperature", "sensor",
		[]schema.Attribute{{Name: "location", Type: value.String}},
		func(ref string) []value.Value {
			i, _ := strconv.Atoi(strings.TrimPrefix(ref, "sens"))
			return []value.Value{value.NewString(locName(i % numLocations))}
		})
	if err != nil {
		return err
	}
	if _, err := e.core.Recover(); err != nil {
		return err
	}
	e.core.SetInvocationParallelism(2)
	if err := e.core.ExecuteDDL(tablesDDL + tableRowsDDL(remoteContacts, 2) + remoteQueriesDDL); err != nil {
		return err
	}
	if err := pinNaive(e.core, r.cfg); err != nil {
		return err
	}
	photos, _ := e.core.Executor().Query("photos")
	e.photoRows = 0
	photos.OnResult = func(_ service.Instant, res *algebra.XRelation, _, _ []value.Tuple) { e.photoRows += res.Len() }
	for t := 0; t < warm; t++ {
		if err := e.tick(); err != nil {
			return fmt.Errorf("warm-up instant %d: %w", t, err)
		}
	}
	if e.probe != nil {
		e.probe.startSection()
	}
	return nil
}

func (e *polledEnv) tick() error {
	if !e.rec.enabled() {
		_, err := e.core.Tick()
		return err
	}
	root := e.rec.open("op", time.Now(), -1)
	err := tracedTick(e.core, e.rec, root)
	e.rec.close(root, time.Now())
	return err
}

// verify compares the stubs' counters and delivery log with the reference
// for instants [0, end).
func (e *polledEnv) verify(r *run, stub *stubs, end int) {
	checkInvokeErrors(r, e.core, remoteQueries)
	if got, want := stub.calls[protoGetTemperature].Load(), int64(end*remoteSensors); got != want {
		r.fail("%d polls, want instants × sensors = %d", got, want)
	}
	var alerts []delivery
	photos := 0
	var wasHot, wasCold [remoteSensors]bool
	for t := 0; t < end; t++ {
		for s := 0; s < remoteSensors; s++ {
			q := polledTemp(stub.seed, s, t)
			hot, cold := q > hotReading, q < coldReading
			if hot && !wasHot[s] {
				for _, c := range contactsOf(s%numLocations, remoteContacts) {
					alerts = append(alerts, delivery{addr: contactAddr(c), at: t})
				}
			}
			if cold && !wasCold[s] {
				photos++
			}
			wasHot[s], wasCold[s] = hot, cold
		}
	}
	checkDeliveries(r, stub.deliveryLog(), alerts, "remote_beta")
	if got := stub.calls[protoTakePhoto].Load(); got != int64(photos) {
		r.fail("%d takePhoto calls, reference has %d", got, photos)
	}
	if got := stub.calls[protoCheckPhoto].Load(); got != int64(photos) {
		r.fail("%d checkPhoto calls, reference has %d", got, photos)
	}
	if e.photoRows != photos {
		r.fail("photos stream has %d rows, takePhoto was called %d times", e.photoRows, photos)
	}
}

func (e *polledEnv) close() {
	if e.core != nil {
		e.core.Close()
		e.core = nil
	}
	if e.edge != nil {
		e.edge.stop()
		e.edge = nil
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}
