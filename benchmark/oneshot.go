package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"serena/internal/pems"
	"serena/internal/query"
	"serena/internal/value"
)

// oneShot is the one-shot half of the algebra: a fixed cycle over eight query
// texts, each going text → parse → plan → evaluate against a local registry
// of 2 048 sensor stubs, 64 cameras and 256 contacts. No continuous query,
// WAL or wire is involved, so it is the control on which changes to those
// must show nothing.
type oneShot struct {
	warm, timed int

	core *pems.PEMS
	r    *run

	sent  int // executions of the query that sends a message
	stats query.InvokeStats
	// want[k] is what text k must return; every execution is checked.
	want [len(oneShotQueries)]resultDigest
}

const (
	oneShotSensors  = 2048
	oneShotContacts = 256
	pingedContact   = 7
)

type oneShotQuery struct {
	name string
	sql  bool
	text string
}

// The cycle. OneShot evaluates a text as written (it does not run the
// optimizer), so the first query really invokes all 2 048 sensors before it
// selects: a one-shot optimizer pass would show here.
var oneShotQueries = [...]oneShotQuery{
	{name: "select_above_invoke", text: `select[location = "loc07"](invoke[getTemperature](sensors))`},
	{name: "hybrid_join", text: `join(invoke[getTemperature](select[location = "loc03"](sensors)),
		rename[area -> location](invoke[checkPhoto](select[area = "loc03"](cameras))))`},
	{name: "aggregate_2048", text: `aggregate[mean(temperature) as avgtemp by location](invoke[getTemperature](sensors))`},
	{name: "three_way_join", text: `join(contacts, join(surveillance, rename[area -> location](cameras)))`},
	{name: "union_diff", text: `diff(union(project[location](sensors), project[location](surveillance)),
		project[location](select[location = "loc00"](surveillance)))`},
	{name: "project_rename", text: `rename[location -> place](project[sensor, location](sensors))`},
	{name: "sql_select_join", sql: true, text: `SELECT name, address, location FROM contacts NATURAL JOIN surveillance WHERE location = "loc05";`},
	{name: "sql_using_active", sql: true, text: `SELECT name, sent FROM contacts SET text := "ping" USING sendMessage WHERE name = "c007";`},
}

// oneShotCycle is the order the texts run in: each once, the SQL join twice.
// Nine slots, an odd number, so that however the texts' costs are ordered
// the median op lies inside one slot's distribution and never on the
// boundary between two texts, where it would jump from run to run.
var oneShotCycle = [...]int{0, 1, 2, 3, 4, 5, 6, 7, 6}

const oneShotDDL = `
EXTENDED RELATION sensors ( sensor SERVICE, location STRING, temperature REAL VIRTUAL )
  USING BINDING PATTERNS ( getTemperature[sensor] );
`

func newOneShot(cfg config) *oneShot {
	// 45 and 445 rounds of the cycle.
	return &oneShot{warm: cfg.scaled(405), timed: cfg.scaled(4005)}
}

func (w *oneShot) name() string    { return "oneshot" }
func (w *oneShot) timedOps() int   { return w.timed }
func (w *oneShot) traceBlock() int { return 5 * len(oneShotCycle) }

func (w *oneShot) build(r *run) error {
	w.r, w.sent, w.stats = r, 0, query.InvokeStats{}
	r.stub = &stubs{seed: r.cfg.seed}
	w.core = pems.New()
	if err := registerPrototypes(w.core.Registry()); err != nil {
		return err
	}
	for _, s := range r.stub.services(oneShotSensors, numLocations, 2) {
		if err := w.core.Registry().Register(s); err != nil {
			return err
		}
	}
	var rows strings.Builder
	rows.WriteString("INSERT INTO sensors VALUES")
	for i := 0; i < oneShotSensors; i++ {
		fmt.Fprintf(&rows, "%s (%s, %q)", comma(i), sensorRef(i), locName(i%numLocations))
	}
	rows.WriteString(";")
	if err := w.core.ExecuteDDL(tablesDDL + oneShotDDL + tableRowsDDL(oneShotContacts, 2) + rows.String()); err != nil {
		return err
	}
	w.want = oneShotReference(r.cfg.seed)
	for i := 0; i < w.warm; i++ {
		if err := w.query(i); err != nil {
			return fmt.Errorf("warm-up query %d: %w", i, err)
		}
	}
	r.stub.busyNS.Store(0)
	return nil
}

// query runs the i-th query of the cycle and checks its result.
func (w *oneShot) query(i int) error {
	k := oneShotCycle[i%len(oneShotCycle)]
	q := oneShotQueries[k]
	var (
		res *query.Result
		err error
	)
	if q.sql {
		res, err = w.core.OneShotSQL(q.text)
	} else {
		res, err = w.core.OneShot(q.text)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", q.name, err)
	}
	if q.name == "sql_using_active" {
		w.sent++
	}
	addInvokeStats(&w.stats, res.Stats)
	if got := digestResult(res); got != w.want[k] {
		w.r.fail("%s: %d rows checksum %x, reference has %d rows checksum %x",
			q.name, got.rows, got.sum, w.want[k].rows, w.want[k].sum)
	}
	return nil
}

func (w *oneShot) op(i int) error {
	if !w.r.rec.enabled() {
		return w.query(w.warm + i)
	}
	start := time.Now()
	err := w.query(w.warm + i)
	w.r.rec.add("op", start, time.Now(), -1)
	return err
}

func (w *oneShot) after(int, bool) {}

func (w *oneShot) finish(r *run) {
	log := r.stub.deliveryLog()
	if len(log) != w.sent {
		r.fail("%d messages delivered, %d executions of the sending query", len(log), w.sent)
	}
	for _, d := range log {
		if want := (delivery{addr: contactAddr(pingedContact), at: 0}); d != want {
			r.fail("unexpected delivery %v", d)
			break
		}
	}
	// Counts cover warm-up and timed queries alike: the cycle is fixed.
	total := w.warm + w.timed
	reportInvokeStats(r, w.stats, total)
	r.setLayer("service.physical_calls_per_op", float64(r.stub.totalCalls())/float64(total), total)
	if r.traced > 0 {
		r.setLayer("service.stub_us_per_op", float64(r.stub.busyNS.Load())/1e3/float64(r.traced), r.traced)
	}
}

func (w *oneShot) close() {
	if w.core != nil {
		w.core.Close()
		w.core = nil
	}
}

// resultDigest identifies a result whatever the order of its rows and
// attributes: the row count and the sum of the rows' hashes.
type resultDigest struct {
	rows int
	sum  uint64
}

func digestResult(res *query.Result) resultDigest {
	names := res.Relation.Schema().RealNames()
	d := resultDigest{rows: res.Relation.Len()}
	row := make(map[string]value.Value, len(names))
	for _, t := range res.Relation.Tuples() {
		for i, n := range names {
			row[n] = t[i]
		}
		d.sum += hashRow(row)
	}
	return d
}

func hashRow(row map[string]value.Value) uint64 {
	names := make([]string, 0, len(row))
	for n := range row {
		names = append(names, n)
	}
	sort.Strings(names)
	var h uint64 = 0xcbf29ce484222325
	for _, n := range names {
		for _, s := range []string{n, "=", row[n].Key(), ";"} {
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * 0x100000001b3
			}
		}
	}
	return mix64(h)
}

// oneShotReference computes in plain Go what each query of the cycle must
// return at instant 0.
func oneShotReference(seed uint64) [len(oneShotQueries)]resultDigest {
	type row = map[string]value.Value
	str, svc := value.NewString, value.NewService
	temp := func(i int) float64 { return quantTemp(polledTemp(seed, i, 0)) }
	var rows [len(oneShotQueries)][]row

	var sum [numLocations]float64
	for i := 0; i < oneShotSensors; i++ {
		l := i % numLocations
		sum[l] += temp(i)
		if l == 7 {
			rows[0] = append(rows[0], row{"sensor": svc(sensorRef(i)), "location": str(locName(l)), "temperature": value.NewReal(temp(i))})
		}
		if l == 3 {
			rows[1] = append(rows[1], row{
				"sensor": svc(sensorRef(i)), "location": str(locName(l)), "temperature": value.NewReal(temp(i)),
				"camera": svc(cameraRef(l)), "quality": value.NewInt(cameraQuality(l)), "delay": value.NewReal(0.25),
			})
		}
		rows[5] = append(rows[5], row{"sensor": svc(sensorRef(i)), "place": str(locName(l))})
	}
	for l := 0; l < numLocations; l++ {
		perLocation := float64(oneShotSensors / numLocations)
		rows[2] = append(rows[2], row{"location": str(locName(l)), "avgtemp": value.NewReal(round6(sum[l] / perLocation))})
		if l != 0 {
			rows[4] = append(rows[4], row{"location": str(locName(l))})
		}
	}
	for i := 0; i < oneShotContacts; i++ {
		l := i % numLocations
		rows[3] = append(rows[3], row{
			"name": str(contactName(i)), "address": str(contactAddr(i)), "messenger": svc(messengerRef(i % 2)),
			"location": str(locName(l)), "camera": svc(cameraRef(l)),
		})
		if l == 5 {
			rows[6] = append(rows[6], row{"name": str(contactName(i)), "address": str(contactAddr(i)), "location": str(locName(l))})
		}
	}
	rows[7] = []row{{"name": str(contactName(pingedContact)), "sent": value.NewBool(true)}}

	var out [len(oneShotQueries)]resultDigest
	for k, rs := range rows {
		out[k].rows = len(rs)
		for _, r := range rs {
			out[k].sum += hashRow(r)
		}
	}
	return out
}
