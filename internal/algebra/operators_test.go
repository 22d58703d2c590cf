package algebra_test

import (
	"errors"
	"fmt"
	"testing"

	"serena/internal/algebra"
	"serena/internal/paperenv"
	"serena/internal/schema"
	"serena/internal/value"
)

// recordingInvoker is a test Invoker that serves canned results and records
// every call.
type recordingInvoker struct {
	results map[string][]value.Tuple // key: proto|ref|inputKey
	calls   []string
	err     error
}

func (ri *recordingInvoker) key(proto, ref string, in value.Tuple) string {
	return proto + "|" + ref + "|" + in.Key()
}

func (ri *recordingInvoker) on(proto, ref string, in value.Tuple, rows ...value.Tuple) {
	if ri.results == nil {
		ri.results = map[string][]value.Tuple{}
	}
	ri.results[ri.key(proto, ref, in)] = rows
}

func (ri *recordingInvoker) Invoke(bp schema.BindingPattern, ref string, in value.Tuple) ([]value.Tuple, error) {
	ri.calls = append(ri.calls, ri.key(bp.Proto.Name, ref, in))
	if ri.err != nil {
		return nil, ri.err
	}
	return ri.results[ri.key(bp.Proto.Name, ref, in)], nil
}

func (ri *recordingInvoker) InvokeAll(bp schema.BindingPattern, jobs []algebra.InvokeJob) []algebra.InvokeResult {
	return algebra.InvokerFunc(ri.Invoke).InvokeAll(bp, jobs)
}

func names(r *algebra.XRelation) []string { return r.Schema().Names() }

func TestSetOperators(t *testing.T) {
	sch := paperenv.ContactsSchema()
	all := paperenv.Contacts()
	two := algebra.MustNew(sch, all.Tuples()[:2])
	one := algebra.MustNew(sch, all.Tuples()[2:])

	u, err := algebra.Union(two, one)
	if err != nil || !u.EqualContents(all) {
		t.Fatalf("Union: %v %v", u, err)
	}
	i, err := algebra.Intersect(all, two)
	if err != nil || !i.EqualContents(two) {
		t.Fatalf("Intersect: %v %v", i, err)
	}
	d, err := algebra.Diff(all, two)
	if err != nil || !d.EqualContents(one) {
		t.Fatalf("Diff: %v %v", d, err)
	}
	// Schema mismatch (even same attrs, different BPs) is rejected.
	noBP := schema.MustExtended("contacts2", sch.Attrs(), nil)
	other := algebra.MustNew(noBP, all.Tuples())
	if _, err := algebra.Union(all, other); err == nil {
		t.Fatal("union across different extended schemas accepted")
	}
	if _, err := algebra.Intersect(all, other); err == nil {
		t.Fatal("intersect across different extended schemas accepted")
	}
	if _, err := algebra.Diff(all, other); err == nil {
		t.Fatal("diff across different extended schemas accepted")
	}
}

func TestUnionCommutesAndIdempotent(t *testing.T) {
	a := paperenv.Contacts()
	u1, _ := algebra.Union(a, a)
	if !u1.EqualContents(a) {
		t.Fatal("r ∪ r must equal r (set semantics)")
	}
	sch := paperenv.ContactsSchema()
	two := algebra.MustNew(sch, a.Tuples()[:2])
	ab, _ := algebra.Union(a, two)
	ba, _ := algebra.Union(two, a)
	if !ab.EqualContents(ba) {
		t.Fatal("union not commutative")
	}
}

func TestProjectTuplesAndDedup(t *testing.T) {
	// Projecting contacts onto messenger collapses the two email rows.
	r, err := algebra.Project(paperenv.Contacts(), []string{"messenger"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("projection should dedup to 2 tuples, got %d", r.Len())
	}
	if got := names(r); len(got) != 1 || got[0] != "messenger" {
		t.Fatalf("schema = %v", got)
	}
}

func TestProjectKeepsVirtualAttrs(t *testing.T) {
	r, err := algebra.Project(paperenv.Contacts(), []string{"name", "text"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Schema().IsVirtual("text") || r.Schema().RealArity() != 1 {
		t.Fatal("virtual attribute must survive projection as virtual")
	}
	for _, tu := range r.Tuples() {
		if len(tu) != 1 {
			t.Fatalf("tuple should have only the real coordinate: %v", tu)
		}
	}
}

func TestSelect(t *testing.T) {
	f := algebra.Compare(algebra.Attr("name"), algebra.Ne, algebra.Const(value.NewString("Carla")))
	r, err := algebra.Select(paperenv.Contacts(), f)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if !r.Schema().Equal(paperenv.ContactsSchema()) {
		t.Fatal("selection must not change the schema")
	}
	bad := algebra.Compare(algebra.Attr("sent"), algebra.Eq, algebra.Const(value.NewBool(true)))
	if _, err := algebra.Select(paperenv.Contacts(), bad); err == nil {
		t.Fatal("selection on virtual attribute accepted")
	}
}

func TestRenameKeepsTuples(t *testing.T) {
	r, err := algebra.Rename(paperenv.Contacts(), "name", "who")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Schema().Has("who") || r.Schema().Has("name") {
		t.Fatal("rename did not relabel")
	}
	if r.Len() != 3 || r.Tuples()[0][0].Kind() != value.String {
		t.Fatal("tuples must be unchanged")
	}
	if _, err := algebra.Rename(paperenv.Contacts(), "ghost", "x"); err == nil {
		t.Fatal("bad rename accepted")
	}
}

func TestNaturalJoinSharedReal(t *testing.T) {
	// contacts ⋈ surveillance joins on the shared real attribute 'name'.
	j, err := algebra.NaturalJoin(paperenv.Contacts(), paperenv.Surveillance())
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 3 {
		t.Fatalf("join Len = %d, want 3", j.Len())
	}
	sch := j.Schema()
	if !sch.Has("location") || !sch.IsReal("location") {
		t.Fatal("location must be joined in as real")
	}
	// Check one row: Carla ↦ office.
	found := false
	locIdx := sch.RealIndex("location")
	nameIdx := sch.RealIndex("name")
	for _, tu := range j.Tuples() {
		if tu[nameIdx].Str() == "Carla" && tu[locIdx].Str() == "office" {
			found = true
		}
	}
	if !found {
		t.Fatal("Carla/office row missing")
	}
	// Binding pattern survives (outputs still virtual).
	if len(sch.BindingPatterns()) != 1 {
		t.Fatal("sendMessage BP should survive the join")
	}
}

func TestNaturalJoinDanglingTuples(t *testing.T) {
	sv := algebra.MustNew(paperenv.SurveillanceSchema(), []value.Tuple{
		{value.NewString("Carla"), value.NewString("office")},
		{value.NewString("Ghost"), value.NewString("cellar")},
	})
	j, err := algebra.NaturalJoin(paperenv.Contacts(), sv)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Fatalf("dangling tuples must not join, Len = %d", j.Len())
	}
}

func TestNaturalJoinCartesianWhenVirtualOnOneSide(t *testing.T) {
	// Schema sharing only attributes that are virtual on one side joins as a
	// Cartesian product (Table 3d).
	textProvider := schema.MustExtended("msgs", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "text", Type: value.String}},
	}, nil)
	msgs := algebra.MustNew(textProvider, []value.Tuple{
		{value.NewString("Hot!")},
		{value.NewString("Cold!")},
	})
	j, err := algebra.NaturalJoin(paperenv.Contacts(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 6 { // 3 contacts × 2 messages
		t.Fatalf("Cartesian Len = %d, want 6", j.Len())
	}
	if !j.Schema().IsReal("text") {
		t.Fatal("text must be implicitly realized by the join")
	}
	// Values must come from the real side.
	textIdx := j.Schema().RealIndex("text")
	seen := map[string]bool{}
	for _, tu := range j.Tuples() {
		seen[tu[textIdx].Str()] = true
	}
	if !seen["Hot!"] || !seen["Cold!"] {
		t.Fatalf("realized text values wrong: %v", seen)
	}
	// sendMessage BP survives: its output 'sent' is still virtual, and its
	// inputs are now all real.
	if len(j.Schema().BindingPatterns()) != 1 {
		t.Fatal("BP should survive implicit realization of an input")
	}
}

func TestNaturalJoinSameSchemaIsIntersectionLike(t *testing.T) {
	a := paperenv.Contacts()
	j, err := algebra.NaturalJoin(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !j.EqualContents(a) {
		t.Fatal("r ⋈ r must equal r")
	}
	if !j.Schema().Equal(a.Schema()) {
		t.Fatal("r ⋈ r must keep the schema")
	}
}

func TestAssignConstMiddleCoordinate(t *testing.T) {
	// contacts real layout: (name, address, messenger); realizing 'text'
	// (schema position 3 of 5) must insert at real coordinate 2.
	r, err := algebra.AssignConst(paperenv.Contacts(), "text", value.NewString("Bonjour!"))
	if err != nil {
		t.Fatal(err)
	}
	sch := r.Schema()
	if sch.RealIndex("text") != 2 || sch.RealIndex("messenger") != 3 {
		t.Fatalf("real coordinates wrong: text=%d messenger=%d",
			sch.RealIndex("text"), sch.RealIndex("messenger"))
	}
	for _, tu := range r.Tuples() {
		if tu[2].Str() != "Bonjour!" {
			t.Fatalf("constant not inserted: %v", tu)
		}
		if tu[3].Kind() != value.Service {
			t.Fatalf("messenger shifted wrongly: %v", tu)
		}
	}
	if len(sch.BindingPatterns()) != 1 {
		t.Fatal("sendMessage BP should survive (output 'sent' still virtual)")
	}
}

func TestAssignConstTypeChecking(t *testing.T) {
	if _, err := algebra.AssignConst(paperenv.Contacts(), "text", value.NewInt(3)); err == nil {
		t.Fatal("INTEGER into STRING attribute accepted")
	}
	// Int constant into REAL virtual attribute coerces.
	r, err := algebra.AssignConst(paperenv.Sensors(), "temperature", value.NewInt(20))
	if err != nil {
		t.Fatal(err)
	}
	idx := r.Schema().RealIndex("temperature")
	if r.Tuples()[0][idx].Kind() != value.Real {
		t.Fatal("Int constant should coerce to REAL")
	}
}

func TestAssignAttr(t *testing.T) {
	r, err := algebra.AssignAttr(paperenv.Contacts(), "text", "address")
	if err != nil {
		t.Fatal(err)
	}
	sch := r.Schema()
	ti, ai := sch.RealIndex("text"), sch.RealIndex("address")
	for _, tu := range r.Tuples() {
		if tu[ti].Str() != tu[ai].Str() {
			t.Fatalf("copy assignment wrong: %v", tu)
		}
	}
	if _, err := algebra.AssignAttr(paperenv.Contacts(), "text", "sent"); err == nil {
		t.Fatal("virtual source accepted")
	}
}

func TestAssignKillsBPWhoseOutputRealized(t *testing.T) {
	r, err := algebra.AssignConst(paperenv.Contacts(), "sent", value.NewBool(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Schema().BindingPatterns()) != 0 {
		t.Fatal("assigning a BP output must eliminate the BP")
	}
}

func TestInvokeRealizesOutputs(t *testing.T) {
	sensors := paperenv.Sensors()
	bp, err := sensors.Schema().FindBP("getTemperature", "")
	if err != nil {
		t.Fatal(err)
	}
	ri := &recordingInvoker{}
	for i, ref := range []string{"sensor01", "sensor06", "sensor07", "sensor22"} {
		ri.on("getTemperature", ref, value.Tuple{}, value.Tuple{value.NewReal(20 + float64(i))})
	}
	r, err := algebra.Invoke(sensors, bp, ri)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	sch := r.Schema()
	if !sch.IsReal("temperature") || len(sch.BindingPatterns()) != 0 {
		t.Fatal("invocation must realize temperature and consume the BP")
	}
	ti := sch.RealIndex("temperature")
	si := sch.RealIndex("sensor")
	for _, tu := range r.Tuples() {
		if tu[si].ServiceRef() == "sensor01" && tu[ti].Real() != 20 {
			t.Fatalf("sensor01 temperature = %v", tu[ti])
		}
	}
	if len(ri.calls) != 4 {
		t.Fatalf("calls = %v", ri.calls)
	}
}

func TestInvokeDuplicatesInputPerOutputTuple(t *testing.T) {
	// An invocation returning 2 tuples duplicates the input tuple (Table 3f).
	sensors := algebra.MustNew(paperenv.SensorsSchema(), []value.Tuple{
		{value.NewService("multi"), value.NewString("lab")},
	})
	bp, _ := sensors.Schema().FindBP("getTemperature", "")
	ri := &recordingInvoker{}
	ri.on("getTemperature", "multi", value.Tuple{},
		value.Tuple{value.NewReal(1)}, value.Tuple{value.NewReal(2)})
	r, err := algebra.Invoke(sensors, bp, ri)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

func TestInvokeEmptyResultDropsTuple(t *testing.T) {
	sensors := algebra.MustNew(paperenv.SensorsSchema(), []value.Tuple{
		{value.NewService("dead"), value.NewString("lab")},
		{value.NewService("ok"), value.NewString("lab")},
	})
	bp, _ := sensors.Schema().FindBP("getTemperature", "")
	ri := &recordingInvoker{}
	ri.on("getTemperature", "ok", value.Tuple{}, value.Tuple{value.NewReal(3)})
	// "dead" has no configured result → empty relation → no output tuples.
	r, err := algebra.Invoke(sensors, bp, ri)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestInvokeSkipsNullServiceRef(t *testing.T) {
	sensors := algebra.MustNew(paperenv.SensorsSchema(), []value.Tuple{
		{value.NewNull(), value.NewString("lab")},
	})
	bp, _ := sensors.Schema().FindBP("getTemperature", "")
	ri := &recordingInvoker{}
	r, err := algebra.Invoke(sensors, bp, ri)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || len(ri.calls) != 0 {
		t.Fatal("NULL service reference must be skipped without invocation")
	}
}

func TestInvokePropagatesErrors(t *testing.T) {
	boom := errors.New("network down")
	sensors := paperenv.Sensors()
	bp, _ := sensors.Schema().FindBP("getTemperature", "")
	ri := &recordingInvoker{err: boom}
	if _, err := algebra.Invoke(sensors, bp, ri); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestInvokeRequiresRealInputs(t *testing.T) {
	contacts := paperenv.Contacts()
	bp, _ := contacts.Schema().FindBP("sendMessage", "")
	// 'text' is virtual → precondition violated.
	if _, err := algebra.Invoke(contacts, bp, &recordingInvoker{}); err == nil {
		t.Fatal("invocation with virtual input accepted")
	}
}

func TestInvokeInputTupleUsesPrototypeOrder(t *testing.T) {
	// Prototype input order (address, text) differs from insertion order of
	// realization; the input tuple must follow the prototype schema.
	withText, err := algebra.AssignConst(paperenv.Contacts(), "text", value.NewString("Bonjour!"))
	if err != nil {
		t.Fatal(err)
	}
	bp, _ := withText.Schema().FindBP("sendMessage", "")
	var captured value.Tuple
	inv := algebra.InvokerFunc(func(_ schema.BindingPattern, ref string, in value.Tuple) ([]value.Tuple, error) {
		captured = in
		return []value.Tuple{{value.NewBool(true)}}, nil
	})
	if _, err := algebra.Invoke(withText, bp, inv); err != nil {
		t.Fatal(err)
	}
	if len(captured) != 2 || captured[0].Str() == "Bonjour!" {
		t.Fatalf("input tuple order wrong: %v (want (address, text))", captured)
	}
	if captured[1].Str() != "Bonjour!" {
		t.Fatalf("text missing from input tuple: %v", captured)
	}
}

func TestTwoStageInvocationCheckThenTake(t *testing.T) {
	// Q2 pattern: β_takePhoto(β_checkPhoto(cameras)) — the first invocation
	// realizes 'quality', enabling the second whose input needs it.
	cams := paperenv.Cameras()
	check, _ := cams.Schema().FindBP("checkPhoto", "")
	ri := &recordingInvoker{}
	for _, c := range []struct {
		ref, area string
		q         int64
	}{{"camera01", "corridor", 8}, {"camera02", "office", 7}, {"webcam07", "roof", 5}} {
		ri.on("checkPhoto", c.ref, value.Tuple{value.NewString(c.area)},
			value.Tuple{value.NewInt(c.q), value.NewReal(0.5)})
		ri.on("takePhoto", c.ref, value.Tuple{value.NewString(c.area), value.NewInt(c.q)},
			value.Tuple{value.NewBlob([]byte(c.ref))})
	}
	checked, err := algebra.Invoke(cams, check, ri)
	if err != nil {
		t.Fatal(err)
	}
	take, err := checked.Schema().FindBP("takePhoto", "")
	if err != nil {
		t.Fatal(err)
	}
	shot, err := algebra.Invoke(checked, take, ri)
	if err != nil {
		t.Fatal(err)
	}
	if shot.Len() != 3 || !shot.Schema().IsReal("photo") {
		t.Fatalf("two-stage invocation broken: %v", shot)
	}
	photos, err := algebra.Project(shot, []string{"photo"})
	if err != nil {
		t.Fatal(err)
	}
	if photos.Len() != 3 {
		t.Fatalf("photo projection Len = %d", photos.Len())
	}
}

func TestOperatorsDoNotMutateInputs(t *testing.T) {
	orig := paperenv.Contacts()
	before := fmt.Sprintf("%v", orig.Tuples())
	_, _ = algebra.Project(orig, []string{"name"})
	_, _ = algebra.Select(orig, algebra.True{})
	_, _ = algebra.Rename(orig, "name", "n2")
	_, _ = algebra.AssignConst(orig, "text", value.NewString("x"))
	_, _ = algebra.NaturalJoin(orig, paperenv.Surveillance())
	if after := fmt.Sprintf("%v", orig.Tuples()); after != before {
		t.Fatal("operators mutated their input relation")
	}
}
