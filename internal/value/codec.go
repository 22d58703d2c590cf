package value

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary codec for values, tuples and row sets: the one encoding the
// WAL writes to disk and the wire ships between nodes. Hand-rolled rather
// than gob: Value has unexported fields, and a fixed byte-level format keeps
// the decoder fuzzable and the bytes stable across Go versions. Changing it
// changes the on-disk WAL and checkpoint formats.
//
// A value is its kind byte followed by its payload (Bool: one byte, Int:
// varint, Real: 8 bytes little-endian IEEE bits, String/Service/Blob: uvarint
// length + bytes); a tuple is a uvarint arity followed by its values; a row
// set is a uvarint count followed by its tuples.

// Encoder appends primitives to Buf.
type Encoder struct{ Buf []byte }

func (e *Encoder) U8(b byte)        { e.Buf = append(e.Buf, b) }
func (e *Encoder) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }
func (e *Encoder) Varint(v int64)   { e.Buf = binary.AppendVarint(e.Buf, v) }
func (e *Encoder) U64(v uint64)     { e.Buf = binary.LittleEndian.AppendUint64(e.Buf, v) }

func (e *Encoder) Bool(b bool) {
	if b {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.Buf = append(e.Buf, b...)
}

func (e *Encoder) Value(v Value) {
	e.U8(byte(v.kind))
	switch v.kind {
	case Bool:
		e.Bool(v.num != 0)
	case Int:
		e.Varint(int64(v.num))
	case Real:
		e.U64(v.num)
	case String, Service:
		e.Str(v.str)
	case Blob:
		e.Bytes(v.blob)
	}
}

func (e *Encoder) Tuple(t Tuple) {
	e.Uvarint(uint64(len(t)))
	for _, v := range t {
		e.Value(v)
	}
}

func (e *Encoder) Rows(rs []Tuple) {
	e.Uvarint(uint64(len(rs)))
	for _, t := range rs {
		e.Tuple(t)
	}
}

// Decoder reads the primitives back with a sticky error: after the first
// failure every read returns a zero value, and the caller checks Finish (or
// Err) once. Counts are validated against the remaining buffer before
// allocating, so hostile bytes — a fuzzer's, or a peer's — cannot demand
// huge slices.
type Decoder struct {
	buf []byte
	pos int
	err error
}

// NewDecoder reads from buf.
func NewDecoder(buf []byte) Decoder { return Decoder{buf: buf} }

// Err returns the first failure, if any.
func (d *Decoder) Err() error { return d.err }

// Finish returns the first failure, or an error when bytes remain unread.
func (d *Decoder) Finish() error {
	if d.err == nil && d.pos != len(d.buf) {
		return fmt.Errorf("%d trailing bytes", len(d.buf)-d.pos)
	}
	return d.err
}

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take consumes the next n bytes, or fails and returns nil when fewer
// remain.
func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.buf)-d.pos {
		d.fail("short buffer reading %s at %d", what, d.pos)
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *Decoder) U8() byte {
	if b := d.take(1, "byte"); b != nil {
		return b[0]
	}
	return 0
}

func (d *Decoder) Uvarint() uint64 { return readVarint(d, binary.Uvarint, "uvarint") }
func (d *Decoder) Varint() int64   { return readVarint(d, binary.Varint, "varint") }

func readVarint[T int64 | uint64](d *Decoder, read func([]byte) (T, int), what string) T {
	if d.err != nil {
		return 0
	}
	v, n := read(d.buf[d.pos:])
	if n <= 0 {
		d.fail("bad %s at %d", what, d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *Decoder) U64() uint64 {
	if b := d.take(8, "u64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Count reads a collection length and checks it against the minimum bytes
// each element needs, bounding allocation by the buffer size.
func (d *Decoder) Count(minPerElem int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if remaining := len(d.buf) - d.pos; n > uint64(remaining/minPerElem)+1 {
		d.fail("count %d exceeds remaining %d bytes", n, remaining)
		return 0
	}
	return int(n)
}

func (d *Decoder) Str() string { return string(d.take(d.Count(1), "string")) }

// Bytes copies the payload out, so the result never aliases the buffer.
func (d *Decoder) Bytes() []byte { return append([]byte(nil), d.take(d.Count(1), "blob")...) }

func (d *Decoder) Value() Value {
	k := Kind(d.U8())
	if d.err != nil {
		return NewNull()
	}
	switch k {
	case Null:
		return NewNull()
	case Bool:
		return NewBool(d.Bool())
	case Int:
		return NewInt(d.Varint())
	case Real:
		return NewReal(math.Float64frombits(d.U64()))
	case String:
		return NewString(d.Str())
	case Service:
		return NewService(d.Str())
	case Blob:
		return NewBlob(d.Bytes())
	}
	d.fail("unknown value kind %d", uint8(k))
	return NewNull()
}

func (d *Decoder) Tuple() Tuple {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	t := make(Tuple, n)
	for i := range t {
		t[i] = d.Value()
	}
	return t
}

func (d *Decoder) Rows() []Tuple {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	rs := make([]Tuple, n)
	for i := range rs {
		rs[i] = d.Tuple()
	}
	return rs
}

// EncodeTuple returns t's encoding as a standalone buffer; the empty tuple
// encodes as nil.
func EncodeTuple(t Tuple) []byte {
	if len(t) == 0 {
		return nil
	}
	e := Encoder{Buf: make([]byte, 0, sizeBound(t))}
	e.Tuple(t)
	return e.Buf
}

// EncodeRows returns the encoding of rs as a standalone buffer; no rows
// encode as nil.
func EncodeRows(rs []Tuple) []byte {
	if len(rs) == 0 {
		return nil
	}
	n := binary.MaxVarintLen64
	for _, t := range rs {
		n += sizeBound(t)
	}
	e := Encoder{Buf: make([]byte, 0, n)}
	e.Rows(rs)
	return e.Buf
}

// sizeBound bounds t's encoded length from above — per value a kind byte,
// at most one varint (or 8-byte float) and the payload — so a standalone
// buffer is allocated once.
func sizeBound(t Tuple) int {
	n := binary.MaxVarintLen64
	for _, v := range t {
		n += 1 + binary.MaxVarintLen64 + len(v.str) + len(v.blob)
	}
	return n
}

// DecodeTuple parses an EncodeTuple buffer, which must hold exactly one
// tuple.
func DecodeTuple(b []byte) (Tuple, error) { return decodeAll(b, (*Decoder).Tuple) }

// DecodeRows parses an EncodeRows buffer, which must hold exactly one row
// set.
func DecodeRows(b []byte) ([]Tuple, error) { return decodeAll(b, (*Decoder).Rows) }

func decodeAll[T any](b []byte, read func(*Decoder) T) (T, error) {
	var zero T
	if len(b) == 0 {
		return zero, nil
	}
	d := NewDecoder(b)
	v := read(&d)
	if err := d.Finish(); err != nil {
		return zero, fmt.Errorf("value: %w", err)
	}
	return v, nil
}
