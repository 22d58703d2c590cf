package wal

import (
	"fmt"
	"os"
	"path/filepath"

	"serena/internal/cq"
	"serena/internal/query"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// A checkpoint bounds replay: it snapshots the whole environment — the
// catalog as re-executable DDL and the executor's cross-tick state — so
// recovery restores it and replays only the WAL segments written after it.
// The file is written beside the segments via temp-file + rename, making it
// atomic: a crash mid-checkpoint leaves the previous one intact.
const (
	checkpointMagic = "SRNCKPT1"
	checkpointFile  = "checkpoint"
	checkpointTmp   = "checkpoint.tmp"
)

// Checkpoint is one durable snapshot of a pervasive environment.
type Checkpoint struct {
	// NextSeq is the first WAL segment to replay after restoring; older
	// segments are redundant and pruned.
	NextSeq uint64
	// Catalog is a DDL script re-creating services, prototypes, relations
	// and registered queries (no data — that lives in State).
	Catalog string
	// State is the executor snapshot.
	State cq.CheckpointState
}

func encodeCheckpoint(c *Checkpoint) []byte {
	e := value.Encoder{}
	e.U64(c.NextSeq)
	e.Str(c.Catalog)
	e.Varint(int64(c.State.At))
	e.Uvarint(uint64(len(c.State.Relations)))
	for _, rs := range c.State.Relations {
		e.Str(rs.Name)
		e.Bool(rs.Derived)
		e.Varint(int64(rs.LastAt))
		e.Uvarint(uint64(len(rs.Events)))
		for _, ev := range rs.Events {
			e.Varint(int64(ev.At))
			e.U8(byte(ev.Kind))
			e.Tuple(ev.Tuple)
		}
		e.Uvarint(uint64(len(rs.Current)))
		for _, ct := range rs.Current {
			e.Tuple(ct.Tuple)
			e.Uvarint(uint64(ct.Count))
		}
	}
	e.Uvarint(uint64(len(c.State.Queries)))
	for _, qs := range c.State.Queries {
		e.Str(qs.Name)
		e.Str(qs.Source)
		e.Str(qs.OnError)
		e.Str(qs.Into)
		e.Varint(int64(qs.Retain))
		e.Rows(qs.PrevOutput)
		e.Uvarint(uint64(len(qs.InvCache)))
		for _, ce := range qs.InvCache {
			e.Uvarint(uint64(ce.Node))
			e.Str(ce.Key)
			// Distinguish "cached as empty/pinned" (nil rows) from rows
			// present: a pinned entry must survive the round trip as an
			// entry, so presence is the entry itself and rows may be empty.
			e.Rows(ce.Rows)
		}
		e.Uvarint(uint64(len(qs.StreamPrev)))
		for _, se := range qs.StreamPrev {
			e.Uvarint(uint64(se.Node))
			e.Tuple(se.Tuple)
		}
		e.Varint(qs.Stats.Passive)
		e.Varint(qs.Stats.Active)
		e.Varint(qs.Stats.Memoized)
		e.Uvarint(uint64(len(qs.Actions)))
		for _, a := range qs.Actions {
			e.Str(a.BP)
			e.Str(a.Ref)
			e.Tuple(a.Input)
		}
	}
	return e.Buf
}

func decodeCheckpoint(payload []byte) (*Checkpoint, error) {
	d := value.NewDecoder(payload)
	c := &Checkpoint{}
	c.NextSeq = d.U64()
	c.Catalog = d.Str()
	c.State.At = service.Instant(d.Varint())
	nrel := d.Count(1)
	for i := 0; i < nrel && d.Err() == nil; i++ {
		var rs cq.RelationState
		rs.Name = d.Str()
		rs.Derived = d.Bool()
		rs.LastAt = service.Instant(d.Varint())
		nev := d.Count(1)
		for j := 0; j < nev && d.Err() == nil; j++ {
			rs.Events = append(rs.Events, stream.Event{
				At:    service.Instant(d.Varint()),
				Kind:  stream.EventKind(d.U8()),
				Tuple: d.Tuple(),
			})
		}
		ncur := d.Count(1)
		for j := 0; j < ncur && d.Err() == nil; j++ {
			t := d.Tuple()
			rs.Current = append(rs.Current, stream.Counted{Tuple: t, Count: int(d.Uvarint())})
		}
		c.State.Relations = append(c.State.Relations, rs)
	}
	nq := d.Count(1)
	for i := 0; i < nq && d.Err() == nil; i++ {
		var qs cq.QueryState
		qs.Name = d.Str()
		qs.Source = d.Str()
		qs.OnError = d.Str()
		qs.Into = d.Str()
		qs.Retain = service.Instant(d.Varint())
		qs.PrevOutput = d.Rows()
		nc := d.Count(1)
		for j := 0; j < nc && d.Err() == nil; j++ {
			qs.InvCache = append(qs.InvCache, cq.InvCacheEntry{
				Node: int(d.Uvarint()),
				Key:  d.Str(),
				Rows: d.Rows(),
			})
		}
		ns := d.Count(1)
		for j := 0; j < ns && d.Err() == nil; j++ {
			qs.StreamPrev = append(qs.StreamPrev, cq.StreamPrevEntry{
				Node:  int(d.Uvarint()),
				Tuple: d.Tuple(),
			})
		}
		qs.Stats.Passive = d.Varint()
		qs.Stats.Active = d.Varint()
		qs.Stats.Memoized = d.Varint()
		na := d.Count(1)
		for j := 0; j < na && d.Err() == nil; j++ {
			qs.Actions = append(qs.Actions, query.Action{
				BP:    d.Str(),
				Ref:   d.Str(),
				Input: d.Tuple(),
			})
		}
		c.State.Queries = append(c.State.Queries, qs)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("wal: checkpoint: %w", err)
	}
	return c, nil
}

// writeCheckpointFile atomically persists the checkpoint: write + fsync the
// temp file, rename over the live name, fsync the directory. Checkpoints
// always fsync, whatever the log's policy — they are the recovery floor.
func writeCheckpointFile(dir string, c *Checkpoint) error {
	payload := encodeCheckpoint(c)
	buf := make([]byte, 0, len(checkpointMagic)+frameHeaderSize+len(payload))
	buf = append(buf, checkpointMagic...)
	buf = appendFrame(buf, payload)
	tmp := filepath.Join(dir, checkpointTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointFile)); err != nil {
		return err
	}
	return syncDir(dir)
}

// loadCheckpoint reads the checkpoint file, returning (nil, nil) when none
// exists. A corrupt checkpoint is an error; the caller degrades to replaying
// the full log rather than refusing to start.
func loadCheckpoint(dir string) (*Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(data) < len(checkpointMagic) || string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("wal: checkpoint: bad magic")
	}
	rest := data[len(checkpointMagic):]
	var c *Checkpoint
	consumed := ScanFrames(rest, func(payload []byte) error {
		if c != nil {
			return fmt.Errorf("wal: checkpoint: extra frame")
		}
		dc, derr := decodeCheckpoint(payload)
		if derr != nil {
			return derr
		}
		c = dc
		return nil
	})
	if c == nil || consumed != len(rest) {
		return nil, fmt.Errorf("wal: checkpoint: corrupt frame")
	}
	return c, nil
}
