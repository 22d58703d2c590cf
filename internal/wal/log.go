package wal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SyncPolicy selects when the log fsyncs. Regardless of policy, buffered
// frames are flushed to the operating system at every tick commit and
// before every active-β intent, so a killed process (SIGKILL) loses at most
// the current in-flight tick; fsync only matters for whole-machine crashes.
type SyncPolicy uint8

// Fsync policies, in the spelling of the -fsync flag.
const (
	// SyncInterval fsyncs at tick commits, at most once per 200ms — the
	// recommended trade-off.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs on every appended batch and every commit.
	SyncAlways
	// SyncOff never fsyncs the log (checkpoints still do).
	SyncOff
)

// String renders the -fsync spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
}

// ParseSyncPolicy parses the -fsync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "off", "none":
		return SyncOff, nil
	}
	return SyncInterval, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
}

// Segment files are named wal-<16-digit sequence>.log; rotation at every
// checkpoint starts a fresh sequence and deletes the segments the
// checkpoint made redundant.
const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := name[len(segPrefix) : len(name)-len(segSuffix)]
	if len(mid) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the sequence numbers present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// segmentWriter appends framed records to one segment file through a
// buffered writer. flush pushes buffered bytes to the OS (SIGKILL-safe);
// sync additionally fsyncs (power-loss-safe).
type segmentWriter struct {
	path     string
	f        *os.File
	w        *bufio.Writer
	scratch  []byte
	lastSync time.Time
}

func openSegment(path string) (*segmentWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &segmentWriter{path: path, f: f, w: bufio.NewWriterSize(f, 64<<10), lastSync: time.Now()}, nil
}

func (s *segmentWriter) append(rec *Record) error {
	s.scratch = appendFrame(s.scratch[:0], encodeRecord(rec))
	_, err := s.w.Write(s.scratch)
	return err
}

func (s *segmentWriter) flush() error { return s.w.Flush() }

func (s *segmentWriter) sync() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	s.lastSync = time.Now()
	return s.f.Sync()
}

func (s *segmentWriter) close() error {
	flushErr := s.w.Flush()
	closeErr := s.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// syncDir fsyncs a directory so renames and creates inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// readSegment scans one segment file into records, stopping at the first
// corrupt frame. truncated reports how many trailing bytes were discarded.
func readSegment(path string) (recs []Record, truncated int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	consumed := ScanFrames(data, func(payload []byte) error {
		r, derr := DecodeRecord(payload)
		if derr != nil {
			return derr
		}
		recs = append(recs, r)
		return nil
	})
	return recs, int64(len(data) - consumed), nil
}

// removeSegmentsBelow deletes every segment with sequence < seq.
func removeSegmentsBelow(dir string, seq uint64) error {
	seqs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for _, s := range seqs {
		if s < seq {
			if err := os.Remove(filepath.Join(dir, segmentName(s))); err != nil {
				return err
			}
		}
	}
	return nil
}
