// Package wal makes a pervasive environment durable: a CRC32-framed,
// length-prefixed append log of environment mutations (DDL, per-tick stream
// events, and the intent/completion of every ACTIVE β invocation) plus
// periodic checkpoints written via temp-file + rename. Recovery restores the
// last checkpoint and replays the log after it; replayed ticks recompute
// passive invocations but never re-fire active ones (Definitions 8/9: a
// restart may not duplicate the action set), consulting the logged
// intent/completion ledger instead.
package wal

import (
	"fmt"

	"serena/internal/service"
	"serena/internal/value"
)

// Type tags one log record.
type Type uint8

// Record types. The intent/result pair implements the effectful-once
// protocol for active β: the intent is made durable BEFORE the physical
// call, the result right after, so a crash between them leaves an orphan
// intent whose outcome is unknown — recovery then treats the action as
// attempted (it enters the action set, like a failed active invocation
// does live) but never re-fires it.
const (
	TypeDDL       Type = 1 // schema mutation (declare/register/unregister), re-executable text
	TypeTickBegin Type = 2 // clock tick τ started
	TypeTickEnd   Type = 3 // clock tick τ committed (all its records precede this)
	TypeInsert    Type = 4 // tuple inserted into a base relation
	TypeDelete    Type = 5 // tuple deleted from a base relation
	TypeIntent    Type = 6 // active β about to fire (query, plan node, bp, ref, input)
	TypeResult    Type = 7 // active β returned (ok + realized rows)
)

// String names the record type.
func (t Type) String() string {
	switch t {
	case TypeDDL:
		return "ddl"
	case TypeTickBegin:
		return "tick-begin"
	case TypeTickEnd:
		return "tick-end"
	case TypeInsert:
		return "insert"
	case TypeDelete:
		return "delete"
	case TypeIntent:
		return "intent"
	case TypeResult:
		return "result"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Record is one entry of the append log. Which fields are meaningful
// depends on Type; unused fields stay zero and are not encoded.
type Record struct {
	Type Type
	At   service.Instant

	// DDL
	Text string

	// Insert / Delete
	Rel   string
	Tuple value.Tuple

	// Intent / Result
	Query string // continuous-query name
	Node  int    // invoke-node index in the registered plan (DFS preorder)
	BP    string // binding-pattern identity "proto[serviceAttr]"
	Ref   string // service reference
	Input value.Tuple
	OK    bool          // Result only: physical call succeeded
	Rows  []value.Tuple // Result only: realized output rows
}

// ActionKey is the delta-cache / ledger identity of an active invocation —
// the same key the continuous executor caches invocation results under.
func (r *Record) ActionKey() string { return r.BP + "|" + r.Ref + "|" + r.Input.Key() }

// encode appends the record's payload (without framing) to the encoder.
func (r *Record) encode(e *value.Encoder) {
	e.U8(byte(r.Type))
	e.Varint(int64(r.At))
	switch r.Type {
	case TypeDDL:
		e.Str(r.Text)
	case TypeTickBegin, TypeTickEnd:
	case TypeInsert, TypeDelete:
		e.Str(r.Rel)
		e.Tuple(r.Tuple)
	case TypeIntent:
		e.Str(r.Query)
		e.Uvarint(uint64(r.Node))
		e.Str(r.BP)
		e.Str(r.Ref)
		e.Tuple(r.Input)
	case TypeResult:
		e.Str(r.Query)
		e.Uvarint(uint64(r.Node))
		e.Str(r.BP)
		e.Str(r.Ref)
		e.Tuple(r.Input)
		e.Bool(r.OK)
		e.Rows(r.Rows)
	}
}

// DecodeRecord parses one framed payload back into a Record. Any structural
// problem — unknown type, short buffer, oversized count, trailing garbage —
// is an error; the log scanner treats it as corruption and truncates there.
func DecodeRecord(payload []byte) (Record, error) {
	d := value.NewDecoder(payload)
	var r Record
	r.Type = Type(d.U8())
	r.At = service.Instant(d.Varint())
	switch r.Type {
	case TypeDDL:
		r.Text = d.Str()
	case TypeTickBegin, TypeTickEnd:
	case TypeInsert, TypeDelete:
		r.Rel = d.Str()
		r.Tuple = d.Tuple()
	case TypeIntent:
		r.Query = d.Str()
		r.Node = int(d.Uvarint())
		r.BP = d.Str()
		r.Ref = d.Str()
		r.Input = d.Tuple()
	case TypeResult:
		r.Query = d.Str()
		r.Node = int(d.Uvarint())
		r.BP = d.Str()
		r.Ref = d.Str()
		r.Input = d.Tuple()
		r.OK = d.Bool()
		r.Rows = d.Rows()
	default:
		return Record{}, fmt.Errorf("wal: unknown record type %d", uint8(r.Type))
	}
	if err := d.Finish(); err != nil {
		return Record{}, fmt.Errorf("wal: %s record: %w", r.Type, err)
	}
	return r, nil
}

// encodeRecord renders the record payload (unframed).
func encodeRecord(r *Record) []byte {
	e := value.Encoder{}
	r.encode(&e)
	return e.Buf
}
