// Package value implements the constant domain D of the Serena data model
// (Gripay et al., EDBT 2010, Section 2.3.1): typed atomic values, total
// ordering, hashing keys and literal parsing.
//
// The paper treats service references as "classical data values" (Section
// 2.2); they are represented here by the dedicated kind Service so that the
// DDL type SERVICE can be checked, but they compare and print like strings.
package value

import (
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the atomic types of the domain D. The zero Kind is Null,
// which represents the SQL-like absence of value inside real attributes
// (virtual attributes never hold values at all; see the schema package).
type Kind uint8

// The supported kinds, mirroring the Serena DDL type names.
const (
	Null    Kind = iota // absence of value
	Bool                // BOOLEAN
	Int                 // INTEGER (64-bit signed)
	Real                // REAL (IEEE-754 double)
	String              // STRING
	Blob                // BLOB (byte string)
	Service             // SERVICE (service reference)
	numKinds
)

// kindNames maps kinds to their Serena DDL spelling.
var kindNames = [numKinds]string{
	Null:    "NULL",
	Bool:    "BOOLEAN",
	Int:     "INTEGER",
	Real:    "REAL",
	String:  "STRING",
	Blob:    "BLOB",
	Service: "SERVICE",
}

// String returns the Serena DDL name of the kind ("INTEGER", "SERVICE", …).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is one of the declared kinds.
func (k Kind) Valid() bool { return k < numKinds }

// KindFromName parses a Serena DDL type name (case-insensitive). It returns
// false when the name is not a known type.
func KindFromName(name string) (Kind, bool) {
	switch strings.ToUpper(name) {
	case "BOOLEAN", "BOOL":
		return Bool, true
	case "INTEGER", "INT":
		return Int, true
	case "REAL", "FLOAT", "DOUBLE":
		return Real, true
	case "STRING", "VARCHAR", "TEXT":
		return String, true
	case "BLOB", "BYTES":
		return Blob, true
	case "SERVICE":
		return Service, true
	case "NULL":
		return Null, true
	}
	return 0, false
}

// Value is one constant from the domain D. The zero Value is the NULL value.
// Values are immutable; the Blob payload must not be mutated after
// construction.
type Value struct {
	kind Kind
	num  uint64 // Bool (0/1), Int (two's complement), Real (IEEE bits)
	str  string // String and Service payload
	blob []byte // Blob payload
}

// NewNull returns the NULL value.
func NewNull() Value { return Value{} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: Bool, num: n}
}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{kind: Int, num: uint64(i)} }

// NewReal returns a REAL value.
func NewReal(f float64) Value { return Value{kind: Real, num: math.Float64bits(f)} }

// NewString returns a STRING value.
func NewString(s string) Value { return Value{kind: String, str: s} }

// NewBlob returns a BLOB value wrapping b. The caller must not mutate b
// afterwards.
func NewBlob(b []byte) Value { return Value{kind: Blob, blob: b} }

// NewService returns a SERVICE reference value (paper Section 2.2: service
// references are plain data values identifying services).
func NewService(ref string) Value { return Value{kind: Service, str: ref} }

// Kind returns the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == Null }

// Bool returns the boolean payload; it panics when the kind is not Bool.
func (v Value) Bool() bool {
	v.mustBe(Bool)
	return v.num != 0
}

// Int returns the integer payload; it panics when the kind is not Int.
func (v Value) Int() int64 {
	v.mustBe(Int)
	return int64(v.num)
}

// Real returns the float payload; it panics when the kind is not Real.
func (v Value) Real() float64 {
	v.mustBe(Real)
	return math.Float64frombits(v.num)
}

// Str returns the string payload; it panics when the kind is not String.
func (v Value) Str() string {
	v.mustBe(String)
	return v.str
}

// Blob returns the blob payload; it panics when the kind is not Blob. The
// returned slice must not be mutated.
func (v Value) Blob() []byte {
	v.mustBe(Blob)
	return v.blob
}

// ServiceRef returns the service reference; it panics when the kind is not
// Service.
func (v Value) ServiceRef() string {
	v.mustBe(Service)
	return v.str
}

// AsFloat converts numeric values (Int, Real, Bool) to float64 for numeric
// comparison; ok is false for other kinds.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.kind {
	case Int:
		return float64(int64(v.num)), true
	case Real:
		return math.Float64frombits(v.num), true
	case Bool:
		if v.num != 0 {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// AsString returns the textual payload of String and Service values; ok is
// false for other kinds.
func (v Value) AsString() (string, bool) {
	if v.kind == String || v.kind == Service {
		return v.str, true
	}
	return "", false
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("value: %s value accessed as %s", v.kind, k))
	}
}

// Numeric reports whether the kind holds a number (Int or Real).
func (k Kind) Numeric() bool { return k == Int || k == Real }

// Textual reports whether the kind holds text (String or Service — the
// paper treats service references as classical string-like data values).
func (k Kind) Textual() bool { return k == String || k == Service }

// Comparable reports whether values of kinds a and b can be ordered against
// each other: identical kinds always can, Int/Real mix numerically, and
// String/Service mix textually.
func Comparable(a, b Kind) bool {
	if a == b {
		return true
	}
	return (a.Numeric() && b.Numeric()) || (a.Textual() && b.Textual())
}

// Compare totally orders values. Within comparable kinds the natural order
// is used (numeric for Int/Real mixes, lexicographic for String/Service
// mixes, blobs, false<true for booleans); across non-comparable kinds the
// kind number decides, with NULL first. This yields a deterministic total
// order suitable for sorting and set operations.
func Compare(a, b Value) int {
	if a.kind.Textual() && b.kind.Textual() {
		return strings.Compare(a.str, b.str)
	}
	if a.kind.Numeric() && b.kind.Numeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		// Equal numerically: Int and Real compare equal (3 == 3.0).
		return 0
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case Null:
		return 0
	case Bool:
		switch {
		case a.num == b.num:
			return 0
		case a.num < b.num:
			return -1
		}
		return 1
	case String, Service:
		return strings.Compare(a.str, b.str)
	case Blob:
		return compareBytes(a.blob, b.blob)
	}
	return 0
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Equal reports whether two values are equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Less reports whether a orders strictly before b.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

// Key returns a string usable as a map key such that Key(a)==Key(b) iff the
// values are identical (same kind and payload). Unlike Compare, Key
// distinguishes Int(3) from Real(3.0) so it can serve as an exact identity
// for memoization; set semantics over tuples use tuple keys built from it.
func (v Value) Key() string {
	var buf [64]byte
	return string(v.appendKey(buf[:0]))
}

// appendKey appends v's key bytes to b; Tuple.Key joins them without a
// string per value.
func (v Value) appendKey(b []byte) []byte {
	switch v.kind {
	case Null:
		return append(b, 'n')
	case Bool:
		if v.num != 0 {
			return append(b, "bT"...)
		}
		return append(b, "bF"...)
	case Int:
		return strconv.AppendInt(append(b, 'i'), int64(v.num), 10)
	case Real:
		return strconv.AppendUint(append(b, 'r'), v.num, 16)
	case String:
		return append(append(b, 's'), v.str...)
	case Service:
		return append(append(b, 'v'), v.str...)
	case Blob:
		return append(append(b, 'x'), v.blob...)
	}
	return append(b, '?')
}

// String renders the value for display: strings are quoted, blobs hex-dumped
// (truncated), NULL prints as "*" following the paper's tables where '*'
// denotes absence of value.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "*"
	case Bool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case Int:
		return strconv.FormatInt(int64(v.num), 10)
	case Real:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case String:
		return quoteSAL(v.str)
	case Service:
		return v.str
	case Blob:
		const max = 8
		if len(v.blob) <= max {
			return "0x" + hex.EncodeToString(v.blob)
		}
		return fmt.Sprintf("0x%s…(%dB)", hex.EncodeToString(v.blob[:max]), len(v.blob))
	}
	return "?"
}

// Quote renders s as a double-quoted string literal using only the escape
// sequences the SAL/DDL lexer understands (\\ \" \n \t); every other byte
// is emitted verbatim. strconv.Quote is unsuitable for anything the lexer
// re-reads: it emits \xNN / \uNNNN escapes for non-printable or non-UTF-8
// content, which the lexer would re-read as the literal characters
// 'x', 'N', 'N' — a lossy round trip.
func Quote(s string) string { return quoteSAL(s) }

func quoteSAL(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\', '"':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Parse parses a literal in Serena Algebra Language syntax: quoted strings
// ("…" or '…'), booleans (true/false), NULL/*, integers, reals, and 0x-blobs.
// Bare identifiers are NOT literals (they are attribute references) and
// yield an error.
func Parse(text string) (Value, error) {
	t := strings.TrimSpace(text)
	switch {
	case t == "":
		return Value{}, fmt.Errorf("value: empty literal")
	case t == "*" || strings.EqualFold(t, "null"):
		return NewNull(), nil
	case strings.EqualFold(t, "true"):
		return NewBool(true), nil
	case strings.EqualFold(t, "false"):
		return NewBool(false), nil
	case len(t) >= 2 && (t[0] == '"' || t[0] == '\''):
		q := t[0]
		if t[len(t)-1] != q {
			return Value{}, fmt.Errorf("value: unterminated string literal %q", text)
		}
		body := t[1 : len(t)-1]
		if q == '\'' {
			body = strings.ReplaceAll(body, `\'`, `'`)
			return NewString(body), nil
		}
		s, err := strconv.Unquote(t)
		if err != nil {
			// Tolerate raw bodies that Unquote rejects (e.g. lone backslash).
			return NewString(body), nil
		}
		return NewString(s), nil
	case strings.HasPrefix(t, "0x") || strings.HasPrefix(t, "0X"):
		b, err := hex.DecodeString(t[2:])
		if err != nil {
			return Value{}, fmt.Errorf("value: bad blob literal %q: %w", text, err)
		}
		return NewBlob(b), nil
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return NewInt(i), nil
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return NewReal(f), nil
	}
	return Value{}, fmt.Errorf("value: cannot parse literal %q", text)
}

// Coerce converts v to kind k when a lossless natural conversion exists
// (Int→Real, String↔Service, NULL→anything). It returns false otherwise.
// Coerce never converts Real→Int (lossy) nor anything to Bool.
func Coerce(v Value, k Kind) (Value, bool) {
	if v.kind == k {
		return v, true
	}
	switch {
	case v.kind == Null:
		return v, true
	case v.kind == Int && k == Real:
		return NewReal(float64(int64(v.num))), true
	case v.kind == String && k == Service:
		return NewService(v.str), true
	case v.kind == Service && k == String:
		return NewString(v.str), true
	}
	return Value{}, false
}
