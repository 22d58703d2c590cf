package main

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// fakeDurability records every call with its arguments and answers with
// values chosen by the test.
type fakeDurability struct {
	calls []string
	due   bool
	err   error
}

func (f *fakeDurability) log(format string, args ...any) {
	f.calls = append(f.calls, fmt.Sprintf(format, args...))
}
func (f *fakeDurability) AttachRelation(x *stream.XDRelation) { f.log("attach %s", x.Name()) }
func (f *fakeDurability) BeginTick(at service.Instant) error  { f.log("begin %d", at); return f.err }
func (f *fakeDurability) CommitTick(at service.Instant) (bool, error) {
	f.log("commit %d", at)
	return f.due, f.err
}
func (f *fakeDurability) ActiveIntent(q string, node int, bp, ref string, in value.Tuple, at service.Instant) error {
	f.log("intent %s %d %s %s %s %d", q, node, bp, ref, in, at)
	return f.err
}
func (f *fakeDurability) ActiveResult(q string, node int, bp, ref string, in value.Tuple, at service.Instant, ok bool, rows []value.Tuple) error {
	f.log("result %s %d %s %s %s %d %v %v", q, node, bp, ref, in, at, ok, rows)
	return f.err
}

func TestTimedDurabilityForwardsUnchanged(t *testing.T) {
	rel := stream.NewFinite(schema.MustExtended("r", []schema.ExtAttr{{Attribute: schema.Attribute{Name: "x", Type: value.Int}}}, nil))
	in := value.Tuple{value.NewString("a"), value.NewInt(3)}
	rows := []value.Tuple{{value.NewBool(true)}}
	boom := errors.New("boom")

	drive := func(d interface {
		AttachRelation(*stream.XDRelation)
		BeginTick(service.Instant) error
		CommitTick(service.Instant) (bool, error)
		ActiveIntent(string, int, string, string, value.Tuple, service.Instant) error
		ActiveResult(string, int, string, string, value.Tuple, service.Instant, bool, []value.Tuple) error
	}) []any {
		d.AttachRelation(rel)
		e1 := d.BeginTick(7)
		due, e2 := d.CommitTick(7)
		e3 := d.ActiveIntent("q", 2, "send[m]", "msg0", in, 7)
		e4 := d.ActiveResult("q", 2, "send[m]", "msg0", in, 7, true, rows)
		return []any{e1, due, e2, e3, e4}
	}

	for _, c := range []struct {
		name   string
		due    bool
		err    error
		traced bool
	}{
		{"untraced ok", false, nil, false},
		{"traced ok", true, nil, true},
		{"traced error", false, boom, true},
		{"untraced error", true, boom, false},
	} {
		want := &fakeDurability{due: c.due, err: c.err}
		wantOut := drive(want)
		inner := &fakeDurability{due: c.due, err: c.err}
		rec := newRecorder()
		rec.on.Store(c.traced)
		gotOut := drive(&timedDurability{inner: inner, rec: rec})
		if !reflect.DeepEqual(inner.calls, want.calls) {
			t.Errorf("%s: inner saw %q, want %q", c.name, inner.calls, want.calls)
		}
		if !reflect.DeepEqual(gotOut, wantOut) {
			t.Errorf("%s: returned %v, want %v", c.name, gotOut, wantOut)
		}
		wantSpans := 0
		if c.traced {
			wantSpans = 4 // begin, commit, intent, result; attaching is not timed
		}
		if len(rec.spans) != wantSpans {
			t.Errorf("%s: %d spans recorded, want %d", c.name, len(rec.spans), wantSpans)
		}
	}
}

func TestRecorderTotalsByName(t *testing.T) {
	rec := newRecorder()
	at := func(us int) time.Time { return rec.epoch.Add(time.Duration(us) * time.Microsecond) }
	root := rec.open("op", at(0), -1)
	rec.add("a", at(10), at(30), root)
	rec.add("a", at(40), at(45), root)
	rec.close(root, at(100))
	if us, n := rec.total("a"); us != 25 || n != 2 {
		t.Fatalf("total(a) = %v us over %d spans, want 25 over 2", us, n)
	}
	if us, n := rec.total("op"); us != 100 || n != 1 {
		t.Fatalf("total(op) = %v us over %d spans, want 100 over 1", us, n)
	}
	if ms := rec.durationsMS("a"); len(ms) != 2 || ms[0] != 0.02 || ms[1] != 0.005 {
		t.Fatalf("durations of a = %v ms, want [0.02 0.005]", ms)
	}
}
