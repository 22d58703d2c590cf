package value

import (
	"reflect"
	"testing"
)

// codecValues holds one value of every kind, with edge-case payloads.
var codecValues = []Value{
	NewNull(),
	NewBool(true),
	NewBool(false),
	NewInt(-42),
	NewReal(3.25),
	NewString("héllo"),
	NewService("sensor01"),
	NewBlob([]byte{0, 1, 2, 255}),
}

func TestValueRoundTrip(t *testing.T) {
	for _, v := range codecValues {
		e := Encoder{}
		e.Value(v)
		d := NewDecoder(e.Buf)
		got := d.Value()
		if err := d.Finish(); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if got.Key() != v.Key() {
			t.Errorf("round trip %v → %v", v, got)
		}
	}
	d := NewDecoder([]byte{99})
	d.Value()
	if d.Err() == nil {
		t.Error("bogus kind accepted")
	}
}

func TestTupleRoundTrip(t *testing.T) {
	for _, tu := range []Tuple{
		{NewInt(1), NewString("x"), NewNull()},
		codecValues,
	} {
		got, err := DecodeTuple(EncodeTuple(tu))
		if err != nil || !got.Equal(tu) {
			t.Fatalf("round trip = %v, %v", got, err)
		}
	}
	// The empty tuple costs no bytes on the wire.
	if b := EncodeTuple(Tuple{}); b != nil {
		t.Fatalf("empty tuple encodes as %v, want nil", b)
	}
	if got, err := DecodeTuple(nil); err != nil || len(got) != 0 {
		t.Fatalf("decode nil = %v, %v", got, err)
	}
	if _, err := DecodeTuple(append(EncodeTuple(Tuple{NewInt(1)}), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// FuzzDecodeRows asserts the row-set decoder — which reads bytes from the
// network as well as from disk — never panics, never over-allocates on a
// hostile count, and that any accepted input survives a re-encode/decode
// cycle unchanged.
func FuzzDecodeRows(f *testing.F) {
	rows := []Tuple{{NewInt(1), NewString("x"), NewNull()}, codecValues, {}}
	good := EncodeRows(rows)
	f.Add(good)
	f.Add(EncodeRows(rows[:1]))
	f.Add(good[:len(good)/2])                   // truncated
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // a count far beyond the buffer
	f.Add([]byte{1, 1, 99})                     // unknown value kind
	f.Fuzz(func(t *testing.T, b []byte) {
		rs, err := DecodeRows(b)
		if err != nil {
			return
		}
		back, err := DecodeRows(EncodeRows(rs))
		if err != nil {
			t.Fatalf("re-decode of accepted rows failed: %v", err)
		}
		if !reflect.DeepEqual(back, rs) {
			t.Fatalf("re-encode changed rows:\n was %v\n now %v", rs, back)
		}
	})
}
