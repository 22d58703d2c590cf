package main

import (
	"fmt"

	"serena/internal/pems"
)

// windowChurn is large state and small churn: two queries over a 128-instant
// window (4 096 tuples) into which each instant brings 32 readings. Local
// only — no WAL, no wire, no telemetry — so it isolates the stream log, the
// delta operators, the executor and tuple keys. It is the same evaluator as
// surveillance used the other way round: an optimisation that is O(changes)
// shows here, one that only speeds bulk insertion does not.
type windowChurn struct {
	warm, timed int

	load   *pushLoad
	core   *pems.PEMS
	push   *pusher
	probe  *tickProbe
	checks []windowCheck
}

const (
	churnSensors    = 512
	churnPerInstant = 32
	churnWindow     = 128
	churnContacts   = 128
)

var churnQueries = []string{"w", "j"}

const churnDDL = `
EXTENDED STREAM temperatures ( sensor SERVICE, location STRING, temperature REAL )
  ON OVERLOAD BLOCK CAPACITY 1024;
EXTENDED RELATION surveillance ( name STRING, location STRING );
REGISTER QUERY w AS
  select[temperature > 28.0](window[128](temperatures));
REGISTER QUERY j AS
  join(surveillance, aggregate[mean(temperature) as avgtemp by location](window[128](temperatures)));
`

func newWindowChurn(cfg config) *windowChurn {
	// The warm-up fills the window (128 instants) and a little more.
	return &windowChurn{warm: cfg.scaled(150), timed: cfg.scaled(1200)}
}

func (w *windowChurn) name() string    { return "window_churn" }
func (w *windowChurn) timedOps() int   { return w.timed }
func (w *windowChurn) traceBlock() int { return checkpointEvery }

func (w *windowChurn) build(r *run) error {
	w.load = genPushLoad(r.cfg.seed, churnSensors, churnPerInstant, w.warm+w.timed)
	w.core = pems.New()
	w.checks = nil
	w.probe = newTickProbe(r, w.core, "", churnQueries)
	if err := w.core.ExecuteDDL(churnDDL); err != nil {
		return err
	}
	rows := "INSERT INTO surveillance VALUES"
	for i := 0; i < churnContacts; i++ {
		rows += fmt.Sprintf("%s (%q, %q)", comma(i), contactName(i), locName(i%numLocations))
	}
	if err := w.core.ExecuteDDL(rows + ";"); err != nil {
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

func (w *windowChurn) op(i int) error { return w.push.instant(w.warm + i) }

func (w *windowChurn) after(i int, traced bool) {
	w.probe.afterOp(i, traced)
	if t := w.warm + i; t%checkEvery == 0 {
		w.checks = append(w.checks, snapshotWindow(w.core, t, "j", "w"))
	}
}

func (w *windowChurn) finish(r *run) {
	w.probe.report()
	w.push.report(r)
	for _, c := range w.checks {
		c.verify(r, w.load, churnWindow)
	}
}

func (w *windowChurn) close() {
	if w.core != nil {
		w.core.Close()
		w.core = nil
	}
}
