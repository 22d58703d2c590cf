package schema

import (
	"strings"
	"testing"

	"serena/internal/value"
)

// Fixtures from the paper's temperature surveillance scenario (Examples 1-4).

func protoSendMessage() *Prototype {
	return MustPrototype("sendMessage",
		MustRel(Attribute{"address", value.String}, Attribute{"text", value.String}),
		MustRel(Attribute{"sent", value.Bool}),
		true)
}

func protoCheckPhoto() *Prototype {
	return MustPrototype("checkPhoto",
		MustRel(Attribute{"area", value.String}),
		MustRel(Attribute{"quality", value.Int}, Attribute{"delay", value.Real}),
		false)
}

func protoTakePhoto() *Prototype {
	return MustPrototype("takePhoto",
		MustRel(Attribute{"area", value.String}, Attribute{"quality", value.Int}),
		MustRel(Attribute{"photo", value.Blob}),
		false)
}

func protoGetTemperature() *Prototype {
	return MustPrototype("getTemperature",
		MustRel(),
		MustRel(Attribute{"temperature", value.Real}),
		false)
}

func contactSchema() *Extended {
	return MustExtended("contacts",
		[]ExtAttr{
			{Attribute{"name", value.String}, false},
			{Attribute{"address", value.String}, false},
			{Attribute{"text", value.String}, true},
			{Attribute{"messenger", value.Service}, false},
			{Attribute{"sent", value.Bool}, true},
		},
		[]BindingPattern{{Proto: protoSendMessage(), ServiceAttr: "messenger"}})
}

func camerasSchema() *Extended {
	return MustExtended("cameras",
		[]ExtAttr{
			{Attribute{"camera", value.Service}, false},
			{Attribute{"area", value.String}, false},
			{Attribute{"quality", value.Int}, true},
			{Attribute{"delay", value.Real}, true},
			{Attribute{"photo", value.Blob}, true},
		},
		[]BindingPattern{
			{Proto: protoCheckPhoto(), ServiceAttr: "camera"},
			{Proto: protoTakePhoto(), ServiceAttr: "camera"},
		})
}

func TestNewRelValidation(t *testing.T) {
	if _, err := NewRel(Attribute{"a", value.Int}, Attribute{"a", value.Real}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewRel(Attribute{"", value.Int}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewRel(Attribute{"a", value.Null}); err == nil {
		t.Error("NULL type accepted")
	}
	r := MustRel(Attribute{"a", value.Int}, Attribute{"b", value.String})
	if r.Arity() != 2 || r.Index("b") != 1 || r.Index("z") != -1 || !r.Has("a") {
		t.Error("basic Rel accessors broken")
	}
}

func TestRelConforms(t *testing.T) {
	r := MustRel(Attribute{"a", value.Int}, Attribute{"b", value.Real}, Attribute{"c", value.Service})
	got, err := r.Conforms(value.Tuple{value.NewInt(1), value.NewInt(2), value.NewString("svc")})
	if err != nil {
		t.Fatalf("Conforms: %v", err)
	}
	if got[1].Kind() != value.Real || got[2].Kind() != value.Service {
		t.Errorf("coercions not applied: %v", got)
	}
	if _, err := r.Conforms(value.Tuple{value.NewInt(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := r.Conforms(value.Tuple{value.NewString("x"), value.NewReal(1), value.NewService("s")}); err == nil {
		t.Error("type mismatch accepted")
	}
	// NULL conforms anywhere.
	if _, err := r.Conforms(value.Tuple{value.NewNull(), value.NewNull(), value.NewNull()}); err != nil {
		t.Errorf("NULLs rejected: %v", err)
	}
}

func TestPrototypeValidation(t *testing.T) {
	out := MustRel(Attribute{"x", value.Int})
	if _, err := NewPrototype("", nil, out, false); err == nil {
		t.Error("empty prototype name accepted")
	}
	if _, err := NewPrototype("p", nil, nil, false); err == nil {
		t.Error("nil output accepted")
	}
	if _, err := NewPrototype("p", nil, MustRel(), false); err == nil {
		t.Error("empty output schema accepted (paper: Output ≠ ∅)")
	}
	if _, err := NewPrototype("p", MustRel(Attribute{"x", value.Int}), out, false); err == nil {
		t.Error("overlapping input/output accepted (paper: disjoint)")
	}
	p := MustPrototype("getTemperature", nil, MustRel(Attribute{"temperature", value.Real}), false)
	if p.Input.Arity() != 0 {
		t.Error("nil input should default to empty schema")
	}
}

func TestPrototypeString(t *testing.T) {
	s := protoSendMessage().String()
	want := "PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE;"
	if s != want {
		t.Errorf("String() = %q\nwant       %q", s, want)
	}
	if strings.Contains(protoCheckPhoto().String(), "ACTIVE") {
		t.Error("passive prototype printed as ACTIVE")
	}
}

func TestExtendedContacts(t *testing.T) {
	c := contactSchema()
	if c.Arity() != 5 || c.RealArity() != 3 {
		t.Fatalf("arity = %d/%d, want 5/3", c.Arity(), c.RealArity())
	}
	if got := c.RealNames(); strings.Join(got, ",") != "name,address,messenger" {
		t.Errorf("RealNames = %v", got)
	}
	// δ_Contact(4)=3 in the paper's 1-based notation → messenger has real
	// coordinate 2 (0-based) as in Example 4.
	if c.RealIndex("messenger") != 2 {
		t.Errorf("RealIndex(messenger) = %d, want 2", c.RealIndex("messenger"))
	}
	if c.RealIndex("text") != -1 {
		t.Error("virtual attribute must have no real coordinate")
	}
	if !c.IsVirtual("sent") || c.IsVirtual("name") || !c.IsReal("name") || c.IsReal("text") {
		t.Error("real/virtual predicates broken")
	}
}

func TestExtendedProjectionOfTupleExample4(t *testing.T) {
	c := contactSchema()
	// t = (Nicolas, nicolas@elysee.fr, email); t[address,messenger] =
	// (nicolas@elysee.fr, email) per Example 4.
	tu := value.Tuple{value.NewString("Nicolas"), value.NewString("nicolas@elysee.fr"), value.NewService("email")}
	idx, err := c.RealIndexes([]string{"address", "messenger"})
	if err != nil {
		t.Fatal(err)
	}
	got := tu.Project(idx)
	if got[0].Str() != "nicolas@elysee.fr" || got[1].ServiceRef() != "email" {
		t.Errorf("projection = %v", got)
	}
	if _, err := c.RealIndexes([]string{"text"}); err == nil {
		t.Error("projection onto virtual attribute must error (Def. 4)")
	}
	if _, err := c.RealIndexes([]string{"ghost"}); err == nil {
		t.Error("projection onto unknown attribute must error")
	}
}

func TestExtendedValidation(t *testing.T) {
	send := protoSendMessage()
	base := []ExtAttr{
		{Attribute{"address", value.String}, false},
		{Attribute{"text", value.String}, true},
		{Attribute{"messenger", value.Service}, false},
		{Attribute{"sent", value.Bool}, true},
	}
	if _, err := NewExtended("x", base, []BindingPattern{{send, "messenger"}}); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	cases := []struct {
		name  string
		attrs []ExtAttr
		bps   []BindingPattern
	}{
		{"service attr missing", base[:2], []BindingPattern{{send, "messenger"}}},
		{"service attr virtual", []ExtAttr{
			{Attribute{"address", value.String}, false},
			{Attribute{"text", value.String}, true},
			{Attribute{"messenger", value.Service}, true},
			{Attribute{"sent", value.Bool}, true},
		}, []BindingPattern{{send, "messenger"}}},
		{"service attr wrong type", []ExtAttr{
			{Attribute{"address", value.String}, false},
			{Attribute{"text", value.String}, true},
			{Attribute{"messenger", value.Int}, false},
			{Attribute{"sent", value.Bool}, true},
		}, []BindingPattern{{send, "messenger"}}},
		{"input attr missing", []ExtAttr{
			{Attribute{"text", value.String}, true},
			{Attribute{"messenger", value.Service}, false},
			{Attribute{"sent", value.Bool}, true},
		}, []BindingPattern{{send, "messenger"}}},
		{"output attr real", []ExtAttr{
			{Attribute{"address", value.String}, false},
			{Attribute{"text", value.String}, true},
			{Attribute{"messenger", value.Service}, false},
			{Attribute{"sent", value.Bool}, false},
		}, []BindingPattern{{send, "messenger"}}},
		{"output type mismatch", []ExtAttr{
			{Attribute{"address", value.String}, false},
			{Attribute{"text", value.String}, true},
			{Attribute{"messenger", value.Service}, false},
			{Attribute{"sent", value.Int}, true},
		}, []BindingPattern{{send, "messenger"}}},
		{"input type mismatch", []ExtAttr{
			{Attribute{"address", value.Int}, false},
			{Attribute{"text", value.String}, true},
			{Attribute{"messenger", value.Service}, false},
			{Attribute{"sent", value.Bool}, true},
		}, []BindingPattern{{send, "messenger"}}},
		{"duplicate bp", base, []BindingPattern{{send, "messenger"}, {send, "messenger"}}},
		{"duplicate attr", append(append([]ExtAttr{}, base...), base[0]), nil},
	}
	for _, c := range cases {
		if _, err := NewExtended("x", c.attrs, c.bps); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestExtendedStringBPAllowsStringServiceAttr(t *testing.T) {
	// The paper's examples use string-typed identifiers as service refs;
	// STRING service attributes are accepted.
	send := protoSendMessage()
	_, err := NewExtended("x", []ExtAttr{
		{Attribute{"address", value.String}, false},
		{Attribute{"text", value.String}, true},
		{Attribute{"messenger", value.String}, false},
		{Attribute{"sent", value.Bool}, true},
	}, []BindingPattern{{send, "messenger"}})
	if err != nil {
		t.Errorf("STRING service attribute rejected: %v", err)
	}
}

func TestExtendedEqual(t *testing.T) {
	a, b := contactSchema(), contactSchema()
	if !a.Equal(b) {
		t.Error("identical schemas not Equal")
	}
	if a.Equal(camerasSchema()) {
		t.Error("different schemas Equal")
	}
	// Same attributes, no BPs → not equal.
	noBPs := MustExtended("contacts", a.Attrs(), nil)
	if a.Equal(noBPs) {
		t.Error("schemas with different BP sets must not be Equal")
	}
}

func TestFindBP(t *testing.T) {
	cam := camerasSchema()
	bp, err := cam.FindBP("takePhoto", "")
	if err != nil || bp.Proto.Name != "takePhoto" {
		t.Fatalf("FindBP: %v", err)
	}
	if _, err := cam.FindBP("sendMessage", ""); err == nil {
		t.Error("unknown prototype accepted")
	}
	if _, err := cam.FindBP("takePhoto", "area"); err == nil {
		t.Error("wrong service attr accepted")
	}
	// Ambiguity: same prototype reachable via two service attributes.
	p := protoGetTemperature()
	amb := MustExtended("amb", []ExtAttr{
		{Attribute{"s1", value.Service}, false},
		{Attribute{"s2", value.Service}, false},
		{Attribute{"temperature", value.Real}, true},
	}, []BindingPattern{{p, "s1"}, {p, "s2"}})
	if _, err := amb.FindBP("getTemperature", ""); err == nil {
		t.Error("ambiguous FindBP must error")
	}
	if bp, err := amb.FindBP("getTemperature", "s2"); err != nil || bp.ServiceAttr != "s2" {
		t.Errorf("qualified FindBP failed: %v", err)
	}
}

func TestExtendedStringDDL(t *testing.T) {
	s := contactSchema().String()
	for _, frag := range []string{
		"EXTENDED RELATION contacts (",
		"text STRING VIRTUAL",
		"messenger SERVICE",
		"USING BINDING PATTERNS (",
		"sendMessage[messenger] ( address, text ) : ( sent )",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("DDL rendering missing %q in:\n%s", frag, s)
		}
	}
}
