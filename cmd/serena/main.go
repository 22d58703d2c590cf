// Command serena is an interactive shell over a PEMS instance: Serena DDL
// statements declare the environment, SAL expressions run as one-shot
// queries, and dot-commands manage continuous queries and the discrete
// clock. Remote pemsd nodes can be attached with -connect.
//
// Usage:
//
//	serena -demo                      # load the paper's scenario and explore
//	serena -script env.ddl            # run a DDL script, then go interactive
//	serena -connect 127.0.0.1:7070    # attach a pemsd node's services
//
// Inside the shell:
//
//	PROTOTYPE …; EXTENDED RELATION …; INSERT INTO …;   (DDL)
//	project[name](contacts)                            (one-shot query)
//	.register alerts invoke[sendMessage](…)            (continuous query)
//	.tick 5        .show contacts      .queries
//	.services      .schema contacts    .help           .quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"serena/internal/ddl"
	"serena/internal/device"
	"serena/internal/pems"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/trace"
	"serena/internal/value"
	"serena/internal/wal"
	"serena/internal/wire"
)

// lastRecovery holds the startup recovery summary for the .recovery
// dot-command (nil when -data-dir is not in use).
var lastRecovery *wal.Info

func main() {
	cfg := pems.DefaultConfig()
	cfg.Bind(flag.CommandLine)
	flag.IntVar(&cfg.Executor.Parallelism, "parallel", cfg.Executor.Parallelism, "invocation parallelism per β operator (1 = sequential)")
	flag.DurationVar(&cfg.Executor.TickBudget, "tick-budget", 0, "tick duration budget; longer ticks count as overruns (0 = none)")
	flag.BoolVar(&cfg.Executor.Coalesce, "coalesce", false, "after a tick overrun, skip passive-only queries one instant (never queries feeding actions)")
	flag.DurationVar(&cfg.Registry.InvokeTimeout, "invoke-timeout", 0, "deadline per service invocation (0 = none)")
	flag.IntVar(&cfg.Registry.Retry.MaxAttempts, "retries", cfg.Registry.Retry.MaxAttempts, "max attempts per passive invocation (1 = no retry)")
	flag.DurationVar(&cfg.Registry.Retry.BaseDelay, "retry-base", cfg.Registry.Retry.BaseDelay, "base backoff between retries")
	breakers := flag.Bool("breakers", false, "enable per-service circuit breakers")
	breaker := resilience.BreakerPolicy{FailureThreshold: 5, Cooldown: 5 * time.Second}
	flag.IntVar(&breaker.FailureThreshold, "breaker-failures", breaker.FailureThreshold, "consecutive failures before a breaker opens")
	flag.DurationVar(&breaker.Cooldown, "breaker-cooldown", breaker.Cooldown, "open-state cooldown before a half-open probe")
	demo := flag.Bool("demo", false, "load the paper's temperature-surveillance scenario")
	script := flag.String("script", "", "DDL script to execute before going interactive")
	connect := flag.String("connect", "", "comma-separated pemsd addresses to attach")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /debug/serena on this address (e.g. 127.0.0.1:8077)")
	traceSample := flag.Int64("trace-sample", trace.DefaultSampleEvery, "trace one in N ticks/evaluations (0 disables tracing)")
	flag.Parse()
	if *breakers {
		cfg.Registry.Breakers = &breaker
	}
	if err := cfg.Validate(); err != nil {
		log.Fatalf("serena: %v", err)
	}
	cfg.ExplainOutput = os.Stdout

	p := pems.New(pems.WithConfig(cfg))
	defer p.Close()
	p.Registry().Tracer().SetSampleEvery(*traceSample)

	if *metricsAddr != "" {
		bound, err := p.ServeMetrics(*metricsAddr)
		if err != nil {
			log.Fatalf("serena: metrics: %v", err)
		}
		fmt.Printf("metrics on http://%s/metrics (debug: /debug/serena, traces: /debug/trace)\n", bound)
	}

	if err := p.ExecuteDDL(prototypesDDL); err != nil {
		log.Fatalf("serena: %v", err)
	}
	if *connect != "" {
		for _, addr := range strings.Split(*connect, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			if err := attach(p, addr); err != nil {
				log.Fatalf("serena: %v", err)
			}
		}
	}
	// Code registrations (devices, poll streams) must precede Recover: live
	// implementations win over checkpoint stubs, and restored relation state
	// needs its relations to exist.
	if *demo {
		if err := loadDemoServices(p); err != nil {
			log.Fatalf("serena: demo: %v", err)
		}
	}
	fresh := true
	if cfg.DataDir != "" {
		info, err := p.Recover()
		if err != nil {
			log.Fatalf("serena: recovery: %v", err)
		}
		lastRecovery = &info
		fresh = info.Fresh
		if !fresh {
			fmt.Printf("recovered environment from %s: checkpoint at instant %d, %d record(s) replayed over %d tick(s), %d orphan invocation(s)\n",
				cfg.DataDir, info.CheckpointAt, info.Records, info.Ticks, info.Orphans)
		}
	}
	if *demo {
		if fresh {
			if err := p.ExecuteDDL(demoDDL); err != nil {
				log.Fatalf("serena: demo: %v", err)
			}
			fmt.Println("demo scenario loaded: relations contacts, cameras, surveillance, sensors; stream temperatures")
			fmt.Println(`try: invoke[getTemperature](select[location = "office"](sensors))`)
		} else {
			fmt.Println("demo devices re-registered; scenario tables restored from the data dir")
		}
	}
	if *script != "" {
		if fresh {
			src, err := os.ReadFile(*script)
			if err != nil {
				log.Fatalf("serena: %v", err)
			}
			if err := p.ExecuteDDL(string(src)); err != nil {
				log.Fatalf("serena: script: %v", err)
			}
			fmt.Printf("executed %s\n", *script)
		} else {
			fmt.Printf("skipped %s (environment recovered from the data dir)\n", *script)
		}
	}

	repl(p, os.Stdin, os.Stdout)
}

// attach dials a pemsd node and registers its services centrally (manual
// discovery for cross-process deployments without a shared bus).
func attach(p *pems.PEMS, addr string) error {
	client, err := wire.Dial(addr, 3*time.Second, p.Registry())
	if err != nil {
		return err
	}
	node, infos, err := client.Describe()
	if err != nil {
		return err
	}
	n := 0
	for _, info := range infos {
		if err := p.Registry().Register(wire.NewRemote(client, info)); err != nil {
			fmt.Printf("  skipping %s: %v\n", info.Ref, err)
			continue
		}
		n++
	}
	fmt.Printf("attached node %q (%s): %d service(s)\n", node, addr, n)
	return nil
}

const prototypesDDL = `
PROTOTYPE sendMessage( address STRING, text STRING ) : (sent BOOLEAN) ACTIVE;
PROTOTYPE checkPhoto( area STRING ) : (quality INTEGER, delay REAL );
PROTOTYPE takePhoto( area STRING, quality INTEGER ) : (photo BLOB );
PROTOTYPE getTemperature( ) : (temperature REAL );
`

const demoDDL = `
EXTENDED RELATION contacts (
  name STRING, address STRING, text STRING VIRTUAL,
  messenger SERVICE, sent BOOLEAN VIRTUAL
) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );
EXTENDED RELATION cameras (
  camera SERVICE, area STRING, quality INTEGER VIRTUAL,
  delay REAL VIRTUAL, photo BLOB VIRTUAL
) USING BINDING PATTERNS (
  checkPhoto[camera] ( area ) : ( quality, delay ),
  takePhoto[camera] ( area, quality ) : ( photo )
);
EXTENDED RELATION sensors (
  sensor SERVICE, location STRING, temperature REAL VIRTUAL
) USING BINDING PATTERNS ( getTemperature[sensor] );
EXTENDED RELATION surveillance ( name STRING, location STRING );
INSERT INTO contacts VALUES
  ("Nicolas", "nicolas@elysee.fr", email),
  ("Carla", "carla@elysee.fr", email),
  ("Francois", "francois@im.gouv.fr", jabber);
INSERT INTO cameras VALUES (camera01, "corridor"), (camera02, "office"), (webcam07, "roof");
INSERT INTO sensors VALUES
  (sensor01, "corridor"), (sensor06, "office"), (sensor07, "office"), (sensor22, "roof");
INSERT INTO surveillance VALUES ("Carla", "office"), ("Nicolas", "corridor"), ("Francois", "roof");
`

// loadDemoServices registers the paper's nine devices and the temperatures
// poll stream — the code half of the demo, re-run on every start (service
// implementations and poll streams live in code, not in checkpoints). The
// DDL half (demoDDL) runs only on a fresh environment.
func loadDemoServices(p *pems.PEMS) error {
	sensors := map[string]*device.Sensor{}
	for _, s := range []struct {
		ref, loc string
		base     float64
	}{
		{"sensor01", "corridor", 19}, {"sensor06", "office", 21},
		{"sensor07", "office", 22}, {"sensor22", "roof", 15},
	} {
		d := device.NewSensor(s.ref, s.loc, s.base, device.WithDailyCycle(2, 1440), device.WithNoise(0.1))
		sensors[s.ref] = d
		if err := p.Registry().Register(d); err != nil {
			return err
		}
	}
	for _, m := range []string{"email", "jabber"} {
		if err := p.Registry().Register(device.NewMessenger(m)); err != nil {
			return err
		}
	}
	for _, c := range []struct {
		ref, area string
		q         int64
	}{{"camera01", "corridor", 8}, {"camera02", "office", 7}, {"webcam07", "roof", 5}} {
		if err := p.Registry().Register(device.NewCamera(c.ref, c.area, c.q, 0.2)); err != nil {
			return err
		}
	}
	_, err := p.AddPollStream("temperatures", "getTemperature", "sensor",
		[]schema.Attribute{{Name: "location", Type: value.String}},
		func(ref string) []value.Value {
			if s, ok := sensors[ref]; ok {
				return []value.Value{value.NewString(s.Location())}
			}
			return []value.Value{value.NewString("unknown")}
		})
	return err
}

var ddlKeywords = []string{"PROTOTYPE", "SERVICE", "EXTENDED", "STREAM", "INSERT", "DELETE", "DROP", "REGISTER", "UNREGISTER"}

func looksLikeDDL(line string) bool {
	up := strings.ToUpper(strings.TrimSpace(line))
	for _, kw := range ddlKeywords {
		if strings.HasPrefix(up, kw+" ") || up == kw {
			return true
		}
	}
	return false
}

func repl(p *pems.PEMS, r io.Reader, out io.Writer) {
	in := bufio.NewScanner(r)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprintln(out, "serena shell — .help for commands, .quit to exit")
	var pending strings.Builder
	prompt := func() {
		if pending.Len() > 0 {
			fmt.Fprint(out, "   ...> ")
		} else {
			fmt.Fprintf(out, "serena[%d]> ", p.Executor().Now())
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		if pending.Len() == 0 && strings.TrimSpace(line) == "" {
			prompt()
			continue
		}
		if pending.Len() == 0 && strings.HasPrefix(strings.TrimSpace(line), ".") {
			if !command(p, strings.TrimSpace(line), out) {
				return
			}
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		text := pending.String()
		// DDL and queries are executed once the statement looks complete
		// (ends with ';' for DDL; queries are single-line by convention).
		if looksLikeDDL(text) {
			if strings.Contains(text, ";") {
				pending.Reset()
				if err := p.ExecuteDDL(text); err != nil {
					fmt.Fprintln(out, "error:", err)
				} else {
					fmt.Fprintln(out, "ok")
				}
			}
			prompt()
			continue
		}
		pending.Reset()
		runQuery(p, strings.TrimSpace(text), out)
		prompt()
	}
}

// runQuery runs a query line: SAL or Serena SQL, evaluated, or planned
// behind an EXPLAIN [ANALYZE] prefix. The front end (ddl.ParseQuery) reads
// the prefix; the engine's entry points take the line as written.
func runQuery(p *pems.PEMS, src string, out io.Writer) {
	st, err := ddl.ParseQuery(src)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	ex, _ := st.(*ddl.Explain)
	switch {
	case ex != nil && ex.Analyze:
		rep, err := p.ExplainAnalyze(src)
		if err != nil {
			if rep != nil && rep.Plan != "" {
				fmt.Fprint(out, rep.Plan)
			}
			fmt.Fprintln(out, "error:", err)
			return
		}
		fmt.Fprint(out, rep.Plan)
		printResult(rep.Result, out)
	case ex != nil:
		ex, err := p.Explain(src)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		printExplanation(ex, out)
	default:
		res, err := p.OneShot(src)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		printResult(res, out)
	}
}

func printExplanation(ex *pems.Explanation, out io.Writer) {
	fmt.Fprintln(out, "original: ", ex.Original)
	for _, st := range ex.Steps {
		fmt.Fprintf(out, "  %-28s → %s\n", st.Rule, st.Result)
	}
	fmt.Fprintln(out, "optimized:", ex.Optimized)
	fmt.Fprintf(out, "estimated cost: %.0f → %.0f\n", ex.CostBefore, ex.CostAfter)
}

// command executes a dot-command; it returns false on .quit.
func command(p *pems.PEMS, line string, out io.Writer) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".quit", ".exit":
		return false
	case ".help":
		fmt.Fprint(out, `commands:
  <DDL statement>;                 execute Serena DDL
  <query>                          evaluate a one-shot query: SAL, or Serena SQL
                                   (SELECT * ... or SELECT <name> ...)
  EXPLAIN <query>                  show the optimized plan and rewrite steps
  EXPLAIN ANALYZE <query>          run the query, show per-operator trace
  .register <name> <query>        register a continuous query (optimized)
  .unregister <name>              remove a continuous query
  .tick [n]                       advance the clock n instants (default 1)
  .show <relation>                print a relation's current contents
  .schema <relation>              print a relation's DDL
  .queries                        list continuous queries
  .services                       list discovered services
  .errors <name>                  show a query's recorded invocation failures
  .breakers                       show circuit-breaker states (-breakers)
  .explain <query>                show the optimized plan and rewrite steps
  .stats [query]                  show continuous-query invocation statistics
  .trace <query>                  run a one-shot query with tracing forced, show span tree
  .lineage <query|""> [key]       list retained invocations feeding a query / touching a tuple
  .sample <n>                     trace one in n ticks/evaluations (0 = off)
  .overload                       show tick budget and ingest-buffer posture
  .health                         show per-query health states and stream dead-man posture
  .peers                          show federation membership, lease ages and node breakers
  .cadence <stream> <n>           dead-man: flag <stream> STALLED after n silent instants (0 = off)
  .poll <name> <proto> <svcAttr>  create a poll stream over a passive input-free prototype
  .metrics                        dump this engine's metrics registry
  .dump                           print the environment as re-executable DDL
  .checkpoint                     force a durable snapshot now (-data-dir)
  .recovery                       show the startup recovery summary (-data-dir)
  .quit
`)
	case ".tick":
		n := 1
		if len(fields) > 1 {
			if v, err := strconv.Atoi(fields[1]); err == nil && v > 0 {
				n = v
			}
		}
		for i := 0; i < n; i++ {
			if _, err := p.Tick(); err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
		}
		fmt.Fprintf(out, "clock at instant %d\n", p.Executor().Now())
	case ".register":
		if len(fields) < 3 {
			fmt.Fprintln(out, "usage: .register <name> <SAL|SQL>")
			break
		}
		name := fields[1]
		src := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(line, ".register"), " "+name))
		q, err := p.RegisterQuery(name, src, true)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprintf(out, "registered %q: %s\n", name, q.Plan())
	case ".unregister":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: .unregister <name>")
			break
		}
		if err := p.UnregisterQuery(fields[1]); err != nil {
			fmt.Fprintln(out, "error:", err)
		} else {
			fmt.Fprintln(out, "ok")
		}
	case ".show":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: .show <relation>")
			break
		}
		at := p.Executor().Now()
		if at < 0 {
			at = 0
		}
		rel, err := p.Env(at).Relation(fields[1])
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprint(out, rel.Table())
		fmt.Fprintf(out, "(%d tuple(s))\n", rel.Len())
	case ".errors":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: .errors <query>")
			break
		}
		q, ok := p.Executor().Query(fields[1])
		if !ok {
			fmt.Fprintln(out, "error: unknown query", fields[1])
			break
		}
		errs := q.InvokeErrors()
		if len(errs) == 0 {
			fmt.Fprintln(out, "no invocation failures recorded")
			break
		}
		for _, e := range errs {
			fmt.Fprintf(out, "  %s\n", e.Error())
		}
	case ".breakers":
		breakers := p.Registry().Breakers()
		if breakers == nil {
			fmt.Fprintln(out, "circuit breakers not enabled (start with -breakers)")
			break
		}
		states := breakers.States()
		if len(states) == 0 {
			fmt.Fprintln(out, "no services tracked yet (breakers track failures lazily)")
			break
		}
		refs := make([]string, 0, len(states))
		for ref := range states {
			refs = append(refs, ref)
		}
		sort.Strings(refs)
		for _, ref := range refs {
			fmt.Fprintf(out, "  %-16s %s\n", ref, states[ref])
		}
	case ".explain":
		src := strings.TrimSpace(strings.TrimPrefix(line, ".explain"))
		if src == "" {
			fmt.Fprintln(out, "usage: .explain <SAL or SELECT query>")
			break
		}
		ex, err := p.Explain(src)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		printExplanation(ex, out)
	case ".stats":
		names := p.Executor().QueryNames()
		if len(fields) > 1 {
			names = fields[1:]
		}
		if len(names) == 0 {
			fmt.Fprintln(out, "no continuous queries registered")
			break
		}
		for _, name := range names {
			q, ok := p.Executor().Query(name)
			if !ok {
				fmt.Fprintln(out, "error: unknown query", name)
				continue
			}
			st := q.Stats()
			fmt.Fprintf(out, "%s: %s\n", name, q.Plan())
			// "memoized" is every passive lookup answered without a physical
			// call of its own: memo hits plus lookups coalesced onto another
			// worker's in-flight call, so passive+memoized counts all lookups.
			fmt.Fprintf(out, "  invocations: %d passive, %d memoized, %d active; %d failure(s)\n",
				st.Passive, st.Memoized+st.Coalesced, st.Active, len(q.InvokeErrors()))
			dt, nt := q.EvalCounts()
			fmt.Fprintf(out, "  evaluator: %s (%d delta / %d naive tick(s))\n", q.EvaluationMode(), dt, nt)
			for _, l := range strings.Split(strings.TrimRight(q.DeltaReport(), "\n"), "\n") {
				fmt.Fprintf(out, "    %s\n", l)
			}
			fmt.Fprintf(out, "  on error: %s\n", q.Degradation())
			if last := q.LastResult(); last != nil {
				fmt.Fprintf(out, "  last result: %d tuple(s)\n", last.Len())
			}
			if acts := q.Actions(); acts != nil && acts.Len() > 0 {
				fmt.Fprintf(out, "  action set: %s\n", acts)
			}
		}
	case ".trace":
		src := strings.TrimSpace(strings.TrimPrefix(line, ".trace"))
		if src == "" {
			fmt.Fprintln(out, "usage: .trace <SAL or SELECT query>")
			break
		}
		rep, err := p.TraceOneShot(src)
		if err != nil {
			if rep != nil && rep.Tree != "" {
				fmt.Fprint(out, rep.Tree)
			}
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprint(out, rep.Tree)
		printResult(rep.Result, out)
	case ".lineage":
		if len(fields) < 2 {
			fmt.Fprintln(out, `usage: .lineage <query|""> [tuple-key fragment]`)
			break
		}
		queryName := strings.Trim(fields[1], `"`)
		key := ""
		if len(fields) > 2 {
			key = strings.Trim(fields[2], `"`)
		}
		entries := p.Lineage(queryName, key)
		if len(entries) == 0 {
			fmt.Fprintln(out, "no matching invocations retained (tracing off, or sampled out — see .sample)")
			break
		}
		for _, e := range entries {
			s := e.Span
			outcome := "rows=" + s.Attr("rows")
			if errAttr := s.Attr("error"); errAttr != "" {
				outcome = "error=" + errAttr
				if d := s.Attr("degraded"); d != "" {
					outcome += " degraded=" + d
				}
			}
			instant := e.Instant
			if instant == "" {
				instant = "?"
			}
			fmt.Fprintf(out, "  instant=%-4s query=%-12s trace=%016x %s[%s] in=%s %s %s\n",
				instant, e.Query, e.TraceID, s.Attr("bp"), s.Attr("ref"), s.Attr("in"), s.Attr("mode"), outcome)
		}
	case ".sample":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: .sample <n>  (0 disables tracing, 1 traces everything)")
			break
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || n < 0 {
			fmt.Fprintln(out, "usage: .sample <n>  (n >= 0)")
			break
		}
		p.Registry().Tracer().SetSampleEvery(n)
		if n == 0 {
			fmt.Fprintln(out, "tracing disabled")
		} else {
			fmt.Fprintf(out, "tracing one in %d ticks/evaluations\n", n)
		}
	case ".checkpoint":
		if err := p.Checkpoint(); err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprintf(out, "checkpoint written (%s) at instant %d\n", p.WAL().Dir(), p.Executor().Now())
	case ".recovery":
		if lastRecovery == nil {
			fmt.Fprintln(out, "durability not enabled (start with -data-dir)")
			break
		}
		r := lastRecovery
		if r.Fresh {
			fmt.Fprintln(out, "fresh data dir: nothing to recover")
			break
		}
		fmt.Fprintf(out, "checkpoint:      %v (at instant %d)\n", r.HadCheckpoint, r.CheckpointAt)
		fmt.Fprintf(out, "segments:        %d\n", r.Segments)
		fmt.Fprintf(out, "records:         %d replayed\n", r.Records)
		fmt.Fprintf(out, "ticks:           %d re-evaluated\n", r.Ticks)
		fmt.Fprintf(out, "orphans:         %d active invocation(s) pinned, never re-fired\n", r.Orphans)
		fmt.Fprintf(out, "truncated bytes: %d (damaged tail discarded)\n", r.TruncatedBytes)
	case ".overload":
		fmt.Fprint(out, p.OverloadReport())
	case ".health":
		fmt.Fprint(out, p.HealthReportText())
	case ".peers":
		fmt.Fprint(out, p.PeersReportText())
	case ".cadence":
		if len(fields) != 3 {
			fmt.Fprintln(out, "usage: .cadence <stream> <n>  (0 turns the dead-man off)")
			break
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 0 {
			fmt.Fprintln(out, "usage: .cadence <stream> <n>  (n >= 0)")
			break
		}
		if err := p.SetStreamCadence(fields[1], service.Instant(n)); err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		if n == 0 {
			fmt.Fprintf(out, "dead-man detection off for %s\n", fields[1])
		} else {
			fmt.Fprintf(out, "%s flagged STALLED after %d silent instant(s)\n", fields[1], n)
		}
	case ".poll":
		if len(fields) != 4 {
			fmt.Fprintln(out, "usage: .poll <name> <proto> <svcAttr>")
			break
		}
		if _, err := p.AddPollStream(fields[1], fields[2], fields[3], nil, nil); err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprintf(out, "poll stream %s: every tick, %s on every implementing service\n", fields[1], fields[2])
	case ".metrics":
		fmt.Fprint(out, p.Registry().Metrics().Snapshot().Render())
	case ".dump":
		fmt.Fprint(out, p.Catalog().Dump())
	case ".schema":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: .schema <relation>")
			break
		}
		x, ok := p.Executor().Relation(fields[1])
		if !ok {
			fmt.Fprintln(out, "error: unknown relation", fields[1])
			break
		}
		fmt.Fprintln(out, x.Schema().String())
	case ".queries":
		names := p.Executor().QueryNames()
		if len(names) == 0 {
			fmt.Fprintln(out, "no continuous queries registered")
			break
		}
		for _, name := range names {
			if q, ok := p.Executor().Query(name); ok {
				var into string
				if q.Into() != "" {
					into = " INTO " + q.Into()
					if q.Retain() > 0 {
						into += fmt.Sprintf(" RETAIN %d", q.Retain())
					}
				}
				fmt.Fprintf(out, "  %-16s %s%s\n", name, q.Plan(), into)
			}
		}
	case ".services":
		reg := p.Registry()
		for _, ref := range reg.Refs() {
			svc, err := reg.Lookup(ref)
			if err != nil {
				continue
			}
			fmt.Fprintf(out, "  %-16s %s\n", ref, strings.Join(svc.PrototypeNames(), ", "))
		}
	default:
		fmt.Fprintln(out, "unknown command; .help for help")
	}
	return true
}

func printResult(res *query.Result, out io.Writer) {
	fmt.Fprint(out, res.Relation.Table())
	fmt.Fprintf(out, "(%d tuple(s); %d passive, %d memoized, %d active invocation(s))\n",
		res.Relation.Len(), res.Stats.Passive, res.Stats.Memoized+res.Stats.Coalesced, res.Stats.Active)
	if res.Actions.Len() > 0 {
		fmt.Fprintln(out, "action set:", res.Actions)
	}
}
