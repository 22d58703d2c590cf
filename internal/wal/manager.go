package wal

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"serena/internal/cq"
	"serena/internal/obs"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// syncEvery bounds fsync frequency under SyncInterval.
const syncEvery = 200 * time.Millisecond

// Options tunes the durability layer.
type Options struct {
	// Fsync is the log's fsync policy (default SyncInterval).
	Fsync SyncPolicy
	// CheckpointEvery is how many committed ticks separate checkpoints
	// (default 50; values < 1 use the default).
	CheckpointEvery int
	// Registry is the engine whose metrics and tracer record the log's
	// work (pems.EnableDurability passes its own; nil gives the log a
	// registry of its own).
	Registry *service.Registry
}

func (o Options) withDefaults() Options {
	if o.CheckpointEvery < 1 {
		o.CheckpointEvery = 50
	}
	if o.Registry == nil {
		o.Registry = service.NewRegistry()
	}
	return o
}

// walObs is the log's durability metrics: append/flush/fsync volume,
// replay progress, and checkpoint cost.
type walObs struct {
	appends, replayRecords    *obs.Counter
	fsyncTime, checkpointTime *obs.Histogram
	checkpointAt              *obs.Gauge
}

// Manager owns one data directory: the checkpoint file plus a sequence of
// WAL segments. It implements cq.Durability for the live path and drives
// replay for recovery. All methods are safe for concurrent use.
type Manager struct {
	dir  string
	opts Options
	m    walObs

	mu             sync.Mutex
	seg            *segmentWriter
	seq            uint64 // current segment sequence
	closed         bool
	replaying      bool // recovery replays through live code paths; drop their appends
	recovered      bool
	ticksSinceCkpt int

	// Loaded at Open, consumed by Recover.
	ckpt       *Checkpoint
	replaySegs []uint64
}

// Open prepares a data directory: creates it if needed, loads the
// checkpoint (tolerating a corrupt one with a warning — the log still
// covers everything), prunes segments the checkpoint made redundant, and
// starts a fresh segment for this process's appends. Call Recover before
// the first tick, even on an empty directory.
func Open(dir string, opts Options) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{dir: dir, opts: opts.withDefaults()}
	reg := m.opts.Registry.Metrics()
	m.m = walObs{
		appends:        reg.Counter("wal.appends"),
		replayRecords:  reg.Counter("wal.replay.records"),
		fsyncTime:      reg.Histogram("wal.fsync.latency"),
		checkpointTime: reg.Histogram("wal.checkpoint.latency"),
		checkpointAt:   reg.Gauge("wal.checkpoint.instant"),
	}
	var err error
	m.ckpt, err = loadCheckpoint(dir)
	if err != nil {
		// Degrade, never refuse to start: recovery falls back to replaying
		// every retained segment from an empty environment.
		slog.Warn("wal: ignoring corrupt checkpoint", "dir", dir, "err", err.Error())
		m.ckpt = nil
	}
	if m.ckpt != nil {
		if err := removeSegmentsBelow(dir, m.ckpt.NextSeq); err != nil {
			return nil, fmt.Errorf("wal: pruning stale segments: %w", err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	m.replaySegs = segs
	m.seq = 1
	if m.ckpt != nil && m.ckpt.NextSeq > m.seq {
		m.seq = m.ckpt.NextSeq
	}
	if n := len(segs); n > 0 && segs[n-1]+1 > m.seq {
		m.seq = segs[n-1] + 1
	}
	m.seg, err = openSegment(filepath.Join(dir, segmentName(m.seq)))
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Dir returns the managed data directory.
func (m *Manager) Dir() string { return m.dir }

// Recovered reports whether Recover has run.
func (m *Manager) Recovered() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovered
}

// RecoveryHooks connects replay back to the live environment. Restore runs
// first (when a checkpoint exists); then the log after the checkpoint is
// replayed in order through the remaining hooks.
type RecoveryHooks struct {
	// Restore re-creates the catalog from DDL and loads the executor
	// snapshot. Called exactly once, before any replay, only when a
	// checkpoint exists.
	Restore func(catalogDDL string, st *cq.CheckpointState) error
	// ApplyDDL re-executes one logged DDL statement at its instant.
	ApplyDDL func(text string, at service.Instant) error
	// ApplyEvent re-applies one base-relation event.
	ApplyEvent func(rel string, kind stream.EventKind, at service.Instant, t value.Tuple) error
	// ReplayTick re-evaluates one committed tick; its events have already
	// been applied, and ledger carries the tick's active-β outcomes.
	ReplayTick func(at service.Instant, ledger cq.ReplayLedger) error
	// SeedActive pins an active invocation from a tick that never
	// committed (outcome per completed/ok — see cq.(*Executor).SeedActive).
	SeedActive func(queryName string, node int, bp, ref string, input value.Tuple, completed, ok bool, rows []value.Tuple)
	// AdvanceTo moves the clock past a tick that started but never
	// committed live (mid-log: the instant was consumed).
	AdvanceTo func(at service.Instant)
}

// Info summarizes one recovery.
type Info struct {
	// Fresh is true when there was nothing to recover (no checkpoint, no
	// records).
	Fresh bool
	// CheckpointAt is the restored snapshot's instant (−1 without one).
	CheckpointAt   service.Instant
	HadCheckpoint  bool
	Segments       int
	Records        int   // replayed log records
	Ticks          int   // fully committed ticks re-evaluated
	Orphans        int   // active invocations seeded from uncommitted ticks
	TruncatedBytes int64 // damaged tail bytes discarded across segments
}

// pendingTick buffers one tick's records between TickBegin and TickEnd.
type pendingTick struct {
	at      service.Instant
	events  []Record
	intents []Record
	results map[string]Record // by action key
}

// Recover restores the checkpoint (if any) and replays the retained log
// through the hooks. Appends arriving through live code paths while
// replaying (relation hooks firing as events are re-applied) are dropped —
// the log already has them. Must be called once before the first BeginTick.
func (m *Manager) Recover(h RecoveryHooks) (Info, error) {
	m.mu.Lock()
	if m.recovered {
		m.mu.Unlock()
		return Info{}, fmt.Errorf("wal: already recovered")
	}
	m.replaying = true
	ckpt := m.ckpt
	segs := m.replaySegs
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.replaying = false
		m.recovered = true
		m.ckpt = nil
		m.replaySegs = nil
		m.mu.Unlock()
	}()

	span := m.opts.Registry.Tracer().ForceRoot("wal.recover")
	defer span.Finish()
	info := Info{CheckpointAt: -1, Segments: len(segs)}
	if ckpt != nil {
		info.HadCheckpoint = true
		info.CheckpointAt = ckpt.State.At
		rs := span.Child("wal.restore")
		err := h.Restore(ckpt.Catalog, &ckpt.State)
		rs.Finish()
		if err != nil {
			return info, fmt.Errorf("wal: restoring checkpoint: %w", err)
		}
	}

	var pend *pendingTick
	// resolvePending handles a tick that started but never committed. A
	// mid-log one failed live AFTER consuming its instant and applying its
	// events, so replay applies them too and advances the clock; the
	// trailing one (the crash point) is discarded — the restarted clock
	// re-executes that instant with freshly pumped sources. Either way its
	// active invocations are seeded: fired is fired (Definition 8).
	resolvePending := func(midLog bool) error {
		if pend == nil {
			return nil
		}
		if midLog {
			for _, ev := range pend.events {
				kind := stream.Insert
				if ev.Type == TypeDelete {
					kind = stream.Delete
				}
				if err := h.ApplyEvent(ev.Rel, kind, ev.At, ev.Tuple); err != nil {
					return fmt.Errorf("wal: replaying %s into %s at %d: %w", ev.Type, ev.Rel, ev.At, err)
				}
			}
			h.AdvanceTo(pend.at)
		}
		for _, in := range pend.intents {
			res, completed := pend.results[in.ActionKey()]
			h.SeedActive(in.Query, in.Node, in.BP, in.Ref, in.Input, completed, res.OK, res.Rows)
			info.Orphans++
		}
		pend = nil
		return nil
	}

	handle := func(rec Record) error {
		info.Records++
		m.m.replayRecords.Inc()
		switch rec.Type {
		case TypeTickBegin:
			if err := resolvePending(true); err != nil {
				return err
			}
			pend = &pendingTick{at: rec.At, results: map[string]Record{}}
		case TypeTickEnd:
			if pend == nil || pend.at != rec.At {
				slog.Warn("wal: unmatched tick-end, skipping", "instant", int64(rec.At))
				return nil
			}
			for _, ev := range pend.events {
				kind := stream.Insert
				if ev.Type == TypeDelete {
					kind = stream.Delete
				}
				if err := h.ApplyEvent(ev.Rel, kind, ev.At, ev.Tuple); err != nil {
					return fmt.Errorf("wal: replaying %s into %s at %d: %w", ev.Type, ev.Rel, ev.At, err)
				}
			}
			ledger := cq.ReplayLedger{}
			for _, in := range pend.intents {
				ent := cq.LedgerEntry{}
				if res, ok := pend.results[in.ActionKey()]; ok {
					ent = cq.LedgerEntry{Completed: true, OK: res.OK, Rows: res.Rows}
				}
				ledger[in.ActionKey()] = ent
			}
			at := pend.at
			pend = nil
			if err := h.ReplayTick(at, ledger); err != nil {
				return err
			}
			info.Ticks++
		case TypeDDL:
			// Applied immediately whether or not a tick is open: live DDL
			// commits independently of the tick loop.
			if err := h.ApplyDDL(rec.Text, rec.At); err != nil {
				return fmt.Errorf("wal: replaying DDL %q: %w", rec.Text, err)
			}
		case TypeInsert, TypeDelete:
			if pend != nil {
				pend.events = append(pend.events, rec)
				return nil
			}
			kind := stream.Insert
			if rec.Type == TypeDelete {
				kind = stream.Delete
			}
			if err := h.ApplyEvent(rec.Rel, kind, rec.At, rec.Tuple); err != nil {
				return fmt.Errorf("wal: replaying %s into %s at %d: %w", rec.Type, rec.Rel, rec.At, err)
			}
		case TypeIntent:
			if pend == nil {
				slog.Warn("wal: intent outside tick, seeding as orphan", "query", rec.Query)
				h.SeedActive(rec.Query, rec.Node, rec.BP, rec.Ref, rec.Input, false, false, nil)
				info.Orphans++
				return nil
			}
			pend.intents = append(pend.intents, rec)
		case TypeResult:
			if pend != nil {
				pend.results[rec.ActionKey()] = rec
			}
		}
		return nil
	}

	rp := span.Child("wal.replay")
	for _, seq := range segs {
		recs, truncated, err := readSegment(filepath.Join(m.dir, segmentName(seq)))
		if err != nil {
			rp.Finish()
			return info, fmt.Errorf("wal: reading segment %d: %w", seq, err)
		}
		if truncated > 0 {
			info.TruncatedBytes += truncated
			slog.Warn("wal: truncating damaged segment tail",
				"segment", segmentName(seq), "bytes", truncated)
		}
		for i := range recs {
			if err := handle(recs[i]); err != nil {
				rp.Finish()
				return info, err
			}
		}
	}
	// Trailing tick never committed: discard its events (the restarted
	// clock re-executes the instant), seed its actives.
	if err := resolvePending(false); err != nil {
		rp.Finish()
		return info, err
	}
	rp.Finish()
	info.Fresh = !info.HadCheckpoint && info.Records == 0
	span.SetAttrInt("records", int64(info.Records))
	span.SetAttrInt("ticks", int64(info.Ticks))
	span.SetAttrInt("orphans", int64(info.Orphans))
	if !info.Fresh {
		slog.Info("wal: recovered environment",
			"dir", m.dir,
			"checkpoint_at", int64(info.CheckpointAt),
			"segments", info.Segments,
			"records", info.Records,
			"ticks", info.Ticks,
			"orphans", info.Orphans,
			"truncated_bytes", info.TruncatedBytes)
	}
	return info, nil
}

// append writes one record, optionally flushing to the OS and fsyncing per
// the configured policy. Appends during replay are dropped: they originate
// from live code paths re-applying what the log already holds.
func (m *Manager) append(rec *Record, flush bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.appendLocked(rec, flush)
}

func (m *Manager) appendLocked(rec *Record, flush bool) error {
	if m.replaying || m.closed {
		return nil
	}
	if err := m.seg.append(rec); err != nil {
		return err
	}
	m.m.appends.Inc()
	if m.opts.Fsync == SyncAlways {
		return m.syncLocked()
	}
	if flush {
		if err := m.seg.flush(); err != nil {
			return err
		}
		if m.opts.Fsync == SyncInterval && time.Since(m.seg.lastSync) >= syncEvery {
			return m.syncLocked()
		}
	}
	return nil
}

func (m *Manager) syncLocked() error {
	start := time.Now()
	if err := m.seg.sync(); err != nil {
		return err
	}
	m.m.fsyncTime.Observe(time.Since(start))
	return nil
}

// AttachRelation implements cq.Durability: every accepted event of a base
// relation is appended to the log. The callback runs under the relation
// lock; the manager takes only its own lock below it and never calls back.
func (m *Manager) AttachRelation(x *stream.XDRelation) {
	rel := x.Name()
	x.SetOnEvent(func(ev stream.Event) {
		typ := TypeInsert
		if ev.Kind == stream.Delete {
			typ = TypeDelete
		}
		if err := m.append(&Record{Type: typ, At: ev.At, Rel: rel, Tuple: ev.Tuple}, false); err != nil {
			slog.Error("wal: appending relation event", "relation", rel, "err", err.Error())
		}
	})
}

// BeginTick implements cq.Durability.
func (m *Manager) BeginTick(at service.Instant) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.recovered {
		return fmt.Errorf("wal: Recover must run before the first tick")
	}
	return m.appendLocked(&Record{Type: TypeTickBegin, At: at}, false)
}

// CommitTick implements cq.Durability: the tick-end record is flushed to
// the operating system (SIGKILL-safe) and fsynced per policy; every
// CheckpointEvery commits it reports a checkpoint due.
func (m *Manager) CommitTick(at service.Instant) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.appendLocked(&Record{Type: TypeTickEnd, At: at}, true); err != nil {
		return false, err
	}
	if m.replaying || m.closed {
		return false, nil
	}
	m.ticksSinceCkpt++
	return m.ticksSinceCkpt >= m.opts.CheckpointEvery, nil
}

// ActiveIntent implements cq.Durability. The intent is flushed to the OS
// before the physical call so a process kill cannot lose it; SyncOff skips
// even that flush's fsync (machine-crash exposure is accepted there).
func (m *Manager) ActiveIntent(queryName string, node int, bp, ref string, input value.Tuple, at service.Instant) error {
	return m.append(&Record{
		Type: TypeIntent, At: at,
		Query: queryName, Node: node, BP: bp, Ref: ref, Input: input,
	}, true)
}

// ActiveResult implements cq.Durability. Buffered until the tick commits: a
// lost result degrades the call to an orphan intent, which recovery treats
// as attempted-but-unknown — never re-fired.
func (m *Manager) ActiveResult(queryName string, node int, bp, ref string, input value.Tuple, at service.Instant, ok bool, rows []value.Tuple) error {
	return m.append(&Record{
		Type: TypeResult, At: at,
		Query: queryName, Node: node, BP: bp, Ref: ref, Input: input,
		OK: ok, Rows: rows,
	}, false)
}

// AppendDDL logs one re-executable DDL statement (flushed, fsynced per
// policy). DDL arriving during replay is dropped like any other append.
func (m *Manager) AppendDDL(text string, at service.Instant) error {
	return m.append(&Record{Type: TypeDDL, At: at, Text: text}, true)
}

// Checkpoint persists a snapshot and rotates the log: the snapshot is
// written atomically with NextSeq pointing at a fresh segment, then every
// older segment is pruned. After a crash anywhere in this sequence the
// directory recovers: rename is atomic, and stale segments are re-pruned at
// the next Open.
func (m *Manager) Checkpoint(catalogDDL string, st cq.CheckpointState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("wal: closed")
	}
	start := time.Now()
	next := m.seq + 1
	ck := &Checkpoint{NextSeq: next, Catalog: catalogDDL, State: st}
	// Seal the current segment before the checkpoint claims everything
	// before NextSeq is redundant.
	if err := m.seg.sync(); err != nil {
		return err
	}
	if err := writeCheckpointFile(m.dir, ck); err != nil {
		return err
	}
	seg, err := openSegment(filepath.Join(m.dir, segmentName(next)))
	if err != nil {
		return err
	}
	old := m.seg
	m.seg = seg
	m.seq = next
	if err := old.close(); err != nil {
		slog.Warn("wal: closing rotated segment", "err", err.Error())
	}
	if err := removeSegmentsBelow(m.dir, next); err != nil {
		slog.Warn("wal: pruning segments after checkpoint", "err", err.Error())
	}
	m.ticksSinceCkpt = 0
	m.m.checkpointTime.Observe(time.Since(start))
	m.m.checkpointAt.Set(int64(st.At))
	return nil
}

// Close flushes, fsyncs and closes the current segment. Further appends are
// dropped.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if err := m.seg.sync(); err != nil {
		m.seg.close()
		return err
	}
	return m.seg.close()
}
