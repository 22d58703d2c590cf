// Command pemsd runs a Local Environment Resource Manager node (the
// distributed boxes of the paper's Figure 1): it hosts simulated devices,
// serves the Serena wire protocol over TCP and prints its address so a
// core PEMS (cmd/serena with -connect) can reach it.
//
// Usage:
//
//	pemsd -node sensors -listen 127.0.0.1:7070 -sensors 4 -cameras 0
//	pemsd -node actuators -listen 127.0.0.1:7071 -messengers email,jabber
//	pemsd -node sensors -sensors 4 -debug 127.0.0.1:8090
//	pemsd -node core -sensors 4 -data-dir /var/lib/serena -init env.ddl
//
// With -debug, the node exposes the same observability surface as the core
// (/metrics, /debug/serena, /debug/vars, /debug/trace, /debug/pprof/*, and
// with -data-dir /debug/health and /debug/peers) over the node's own
// registry — shared with the embedded core and the wire server — so a
// remote invocation can be followed server-side: the wire server resumes
// the client's trace and its spans land in this node's /debug/trace.
//
// With -data-dir, the node additionally runs an embedded durable PEMS core
// over its hosted devices: environment mutations are write-ahead logged and
// checkpointed in the directory, the continuous clock ticks in real time
// (-tick), and a restart recovers the environment — continuous queries,
// window state and the active-invocation ledger included. On SIGTERM the
// node drains the in-flight tick, writes a final checkpoint and exits 0.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"serena/internal/device"
	"serena/internal/discovery"
	"serena/internal/obs"
	"serena/internal/pems"
	"serena/internal/service"
	"serena/internal/trace"
	"serena/internal/value"
	"serena/internal/wire"
)

func main() {
	cfg := pems.DefaultConfig()
	cfg.Bind(flag.CommandLine)
	var srvOpts wire.ServerOptions
	flag.IntVar(&srvOpts.MaxInFlight, "max-inflight", 0, "cap concurrent requests across all connections; excess rejected as overloaded (0 = unlimited)")
	flag.DurationVar(&srvOpts.ReadTimeout, "read-timeout", 0, "per-connection idle read deadline; silent clients are dropped (0 = none)")
	flag.DurationVar(&srvOpts.WriteTimeout, "write-timeout", 0, "per-response write deadline (0 = none)")
	node := flag.String("node", "node", "node name")
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address")
	sensors := flag.Int("sensors", 0, "number of simulated temperature sensors")
	cameras := flag.Int("cameras", 0, "number of simulated cameras")
	messengers := flag.String("messengers", "", "comma-separated messenger refs (e.g. email,jabber)")
	base := flag.Float64("base", 20, "base temperature for sensors")
	location := flag.String("location", "lab", "location/area for hosted devices")
	debugAddr := flag.String("debug", "", "HTTP observability listen address (empty = disabled)")
	tick := flag.Duration("tick", time.Second, "continuous clock interval of the embedded core (with -data-dir)")
	initScript := flag.String("init", "", "DDL script executed once, on a fresh data dir (with -data-dir)")
	poll := flag.String("poll", "", "comma-separated name=prototype pairs: poll streams over passive input-free prototypes (with -data-dir)")
	join := flag.String("join", "", "comma-separated wire addresses of peer pemsd nodes to federate with")
	lease := flag.Duration("lease", 30*time.Second, "discovery lease: peers silent this long are masked out (heartbeats go every lease/4)")
	svcPrefix := flag.String("svc-prefix", "", "service reference prefix for hosted devices (default: the node name; set equal on two nodes to replicate references)")
	outbox := flag.String("outbox", "", "append every accepted messenger delivery to this file (the chaos harness's side-effect record)")
	verbose := flag.Bool("v", false, "debug-level logging")
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)
	if err := cfg.Validate(); err != nil {
		fatal(logger, err)
	}

	// The federation bus: wire v4 announce frames between pemsd peers. It is
	// always constructed (cheap and silent without peers) so any node can be
	// joined by others; outbound links come from -join and from relayed
	// Alive frames.
	bus := discovery.NewWireBus(*node, discovery.WithBusLease(*lease))

	var core *pems.PEMS
	reg := service.NewRegistry()
	if cfg.DataDir != "" {
		// The embedded core shares one registry with the wire server, so
		// hosted devices are both remotely invocable and locally queryable.
		// The discovery manager turns peer announcements into provider
		// registrations in that same registry.
		core = pems.New(pems.WithConfig(cfg), pems.WithDiscovery(bus, discovery.WithLease(*lease)))
		reg = core.Registry()
	}
	for _, p := range device.ScenarioPrototypes() {
		if err := reg.RegisterPrototype(p); err != nil {
			fatal(logger, err)
		}
	}
	prefix := *svcPrefix
	if prefix == "" {
		prefix = *node
	}
	hosted := 0
	for i := 0; i < *sensors; i++ {
		ref := fmt.Sprintf("%s-sensor%02d", prefix, i)
		s := device.NewSensor(ref, *location, *base, device.WithDailyCycle(3, 1440), device.WithNoise(0.2))
		if err := reg.Register(s); err != nil {
			fatal(logger, err)
		}
		hosted++
	}
	for i := 0; i < *cameras; i++ {
		ref := fmt.Sprintf("%s-camera%02d", prefix, i)
		if err := reg.Register(device.NewCamera(ref, *location, 7, 0.2)); err != nil {
			fatal(logger, err)
		}
		hosted++
	}
	if *messengers != "" {
		for _, ref := range strings.Split(*messengers, ",") {
			ref = strings.TrimSpace(ref)
			if ref == "" {
				continue
			}
			m := device.NewMessenger(ref)
			if *outbox != "" {
				m.SetOutboxFile(*outbox)
			}
			if err := reg.Register(m); err != nil {
				fatal(logger, err)
			}
			hosted++
		}
	}
	if hosted == 0 && core == nil {
		logger.Error("pemsd: nothing to host; pass -sensors, -cameras or -messengers")
		os.Exit(1)
	}
	bus.SetCatalogFromRegistry(reg)

	if core != nil {
		if err := startCore(logger, core, cfg.DataDir, *tick, *initScript, *poll); err != nil {
			fatal(logger, err)
		}
	}

	srv := wire.NewServer(*node, reg, srvOpts)
	bus.Serve(srv)
	addr, err := srv.Listen(*listen)
	if err != nil {
		fatal(logger, err)
	}
	bus.SetAdvertiseAddr(addr)
	if *join != "" {
		var peers []string
		for _, a := range strings.Split(*join, ",") {
			if a = strings.TrimSpace(a); a != "" {
				peers = append(peers, a)
			}
		}
		bus.Join(peers...)
		logger.Info("pemsd: federating", "join", peers, "lease", *lease)
	}
	bus.Start()
	bus.AnnounceSelfNow()
	logger.Info("pemsd: serving", "node", *node, "services", hosted, "addr", addr)
	fmt.Printf("pemsd: node %q serving %d service(s) on %s\n", *node, hosted, addr)
	fmt.Printf("pemsd: connect from the core with: serena -connect %s\n", addr)

	if *debugAddr != "" {
		extra := map[string]http.Handler{
			"/debug/trace": trace.Handler(reg.Tracer()),
		}
		if core != nil {
			// The embedded core's own mux answers its health and
			// membership routes.
			h := core.DebugHandler()
			extra["/debug/health"], extra["/debug/peers"] = h, h
		}
		mux := obs.DebugMux(reg.Metrics(), func(w io.Writer) { writeStatus(w, *node, addr, reg) }, extra)
		// Listen before serving so ":0" resolves to the real port in the
		// printed URL — harnesses parse it to find /debug/peers.
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(logger, err)
		}
		hsrv := &http.Server{Handler: mux}
		go func() {
			if err := hsrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				logger.Error("pemsd: debug endpoint failed", "err", err.Error())
			}
		}()
		logger.Info("pemsd: observability endpoint", "addr", ln.Addr().String())
		fmt.Printf("pemsd: observability on http://%s/debug/serena\n", ln.Addr().String())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("pemsd: shutting down")
	// Graceful drain announces a Bye FIRST: peers mask this node (and fail
	// its references over to surviving replicas) before we stop answering,
	// instead of waiting out the lease.
	bus.Announce(discovery.Announcement{Kind: discovery.Bye, Node: *node, Addr: addr})
	if core != nil {
		// Close stops the ticker — waiting out the in-flight tick and its β
		// invocations (bounded by the configured invocation deadline) — then
		// writes a final checkpoint and closes the WAL, so the next start
		// recovers without replaying any log.
		core.Close()
		logger.Info("pemsd: final checkpoint written", "dir", cfg.DataDir)
	}
	bus.Stop()
	_ = srv.Close()
}

// startCore adds the poll streams to the embedded PEMS, recovers the
// environment from the data directory, runs the init script on a fresh
// directory, and starts the real-time clock.
func startCore(logger *slog.Logger, core *pems.PEMS, dataDir string, tick time.Duration, initScript, poll string) error {
	// Before Recover: WAL-logged queries over poll streams need those
	// relations to exist to re-register.
	if poll != "" {
		for _, spec := range strings.Split(poll, ",") {
			spec = strings.TrimSpace(spec)
			if spec == "" {
				continue
			}
			name, protoName, ok := strings.Cut(spec, "=")
			if !ok {
				return fmt.Errorf("pemsd: -poll %q: want name=prototype", spec)
			}
			if _, err := core.AddPollStream(name, protoName, "service", nil,
				func(string) []value.Value { return nil }); err != nil {
				return fmt.Errorf("pemsd: -poll %s: %w", spec, err)
			}
			logger.Info("pemsd: poll stream", "stream", name, "prototype", protoName)
		}
	}
	info, err := core.Recover()
	if err != nil {
		return err
	}
	logger.Info("pemsd: recovered", "dir", dataDir, "fresh", info.Fresh,
		"checkpoint_at", int64(info.CheckpointAt), "segments", info.Segments,
		"records", info.Records, "ticks", info.Ticks, "orphans", info.Orphans,
		"truncated_bytes", info.TruncatedBytes)
	if initScript != "" {
		if info.Fresh {
			src, err := os.ReadFile(initScript)
			if err != nil {
				return err
			}
			if err := core.ExecuteDDL(string(src)); err != nil {
				return fmt.Errorf("init script %s: %w", initScript, err)
			}
			logger.Info("pemsd: init script executed", "script", initScript)
		} else {
			logger.Info("pemsd: init script skipped (environment recovered)", "script", initScript)
		}
	}
	return core.StartTicker(tick, func(err error) {
		logger.Error("pemsd: tick failed", "err", err.Error())
	})
}

// writeStatus renders this node's /debug/serena page: hosted services and
// the metrics snapshot.
func writeStatus(w io.Writer, node, addr string, reg *service.Registry) {
	fmt.Fprintf(w, "serena Local ERM (pemsd)\n========================\n\nnode: %s\nwire: %s\n", node, addr)
	refs := reg.Refs()
	sort.Strings(refs)
	fmt.Fprintf(w, "\nhosted services (%d):\n", len(refs))
	for _, ref := range refs {
		svc, err := reg.Lookup(ref)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "  %-24s %s\n", ref, strings.Join(svc.PrototypeNames(), ", "))
	}
	fmt.Fprintf(w, "\nmetrics:\n%s", reg.Metrics().Snapshot().Render())
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("pemsd: fatal", "err", err.Error())
	os.Exit(1)
}
