package catalog_test

import (
	"strings"
	"testing"

	"serena/internal/catalog"
	"serena/internal/paperenv"
	"serena/internal/resilience"
	"serena/internal/service"
	"serena/internal/value"
)

func TestDumpRoundTrip(t *testing.T) {
	c := newCatalog(t)
	// Add some tricky values: a REAL without a decimal point, a NULL, a
	// non-identifier service ref, a blob.
	if err := execScript(c, `
		EXTENDED RELATION extra (
		  n INTEGER, r REAL, flag BOOLEAN, note STRING, svc SERVICE, data BLOB
		);`, 0); err != nil {
		t.Fatal(err)
	}
	extra, _ := c.Relation("extra")
	if err := extra.Insert(0, value.Tuple{
		value.NewInt(-3), value.NewReal(4), value.NewBool(true),
		value.NewNull(), value.NewService("urn:svc/1"), value.NewBlob([]byte{1, 2, 0xff}),
	}); err != nil {
		t.Fatal(err)
	}

	dump := c.Dump()
	for _, frag := range []string{
		"PROTOTYPE sendMessage", "EXTENDED RELATION contacts",
		"EXTENDED STREAM temperatures", "INSERT INTO contacts",
		"4.0", `"urn:svc/1"`, "0x0102ff", "null",
	} {
		if !strings.Contains(dump, frag) {
			t.Errorf("dump missing %q:\n%s", frag, dump)
		}
	}

	// Restore into a fresh catalog (same live services).
	reg2, _ := paperenv.MustRegistry()
	c2 := catalog.New(reg2)
	if err := execScript(c2, dump, 0); err != nil {
		t.Fatalf("restoring dump failed: %v\n%s", err, dump)
	}
	if got, want := strings.Join(c2.Names(), ","), strings.Join(c.Names(), ","); got != want {
		t.Fatalf("restored relations %q, want %q", got, want)
	}
	// Contents restored.
	orig, _ := c.Relation("contacts")
	restored, _ := c2.Relation("contacts")
	if len(restored.Current()) != len(orig.Current()) {
		t.Fatalf("contacts rows = %d, want %d", len(restored.Current()), len(orig.Current()))
	}
	if !restored.Schema().Equal(orig.Schema()) {
		t.Fatal("contacts schema changed through dump/restore")
	}
	// Tricky row intact (including blob, REAL typing and quoted ref).
	e2, _ := c2.Relation("extra")
	rows := e2.Current()
	if len(rows) != 1 {
		t.Fatalf("extra rows = %d", len(rows))
	}
	row := rows[0]
	if row[1].Kind() != value.Real || row[1].Real() != 4 {
		t.Fatalf("REAL literal lost typing: %v (%s)", row[1], row[1].Kind())
	}
	if row[4].Kind() != value.Service || row[4].ServiceRef() != "urn:svc/1" {
		t.Fatalf("service ref lost: %v (%s)", row[4], row[4].Kind())
	}
	if row[5].Kind() != value.Blob || len(row[5].Blob()) != 3 {
		t.Fatalf("blob lost: %v", row[5])
	}
	if !row[3].IsNull() {
		t.Fatalf("null lost: %v", row[3])
	}
	// Dump of the restored catalog is stable.
	if c2.Dump() != dump {
		t.Fatal("dump not idempotent across restore")
	}
}

// TestDumpRoundTripActiveAndControlChars proves the dump text alone — no
// pre-registered prototypes — carries the ACTIVE flag of binding-pattern
// prototypes and survives hostile string contents (newlines, tabs, control
// bytes, quotes, backslashes).
func TestDumpRoundTripActiveAndControlChars(t *testing.T) {
	c := newCatalog(t)
	if err := execScript(c, `EXTENDED RELATION weird ( note STRING );`, 0); err != nil {
		t.Fatal(err)
	}
	weird, _ := c.Relation("weird")
	hostile := "line1\nline2\ttab \x01 \"quoted\" back\\slash"
	if err := weird.Insert(0, value.Tuple{value.NewString(hostile)}); err != nil {
		t.Fatal(err)
	}
	dump := c.Dump()
	if !strings.Contains(dump, "ACTIVE") {
		t.Fatalf("dump lost the ACTIVE prototype flag:\n%s", dump)
	}

	// Restore into a completely empty registry: everything — prototypes,
	// their active flags, service stubs — must come from the dump text.
	reg2 := service.NewRegistry()
	c2 := catalog.New(reg2)
	if err := execScript(c2, dump, 0); err != nil {
		t.Fatalf("restoring dump into empty registry failed: %v\n%s", err, dump)
	}
	send, err := reg2.Prototype("sendMessage")
	if err != nil {
		t.Fatal(err)
	}
	if !send.Active {
		t.Fatal("ACTIVE flag lost through dump/restore")
	}
	temp, err := reg2.Prototype("getTemperature")
	if err != nil {
		t.Fatal(err)
	}
	if temp.Active {
		t.Fatal("passive prototype became active through dump/restore")
	}
	w2, _ := c2.Relation("weird")
	rows := w2.Current()
	if len(rows) != 1 || rows[0][0].Str() != hostile {
		t.Fatalf("control-character string mangled: %q", rows[0][0].Str())
	}
	// Binding patterns survive the text round-trip.
	orig, _ := c.Relation("contacts")
	restored, _ := c2.Relation("contacts")
	if !restored.Schema().Equal(orig.Schema()) {
		t.Fatal("binding patterns lost through dump/restore")
	}
}

// TestDumpRoundTripOverloadPolicy: an ON OVERLOAD clause survives dump and
// restore, so WAL replay and checkpoints rebuild the ingest bound.
func TestDumpRoundTripOverloadPolicy(t *testing.T) {
	c := newCatalog(t)
	if err := execScript(c, `
		EXTENDED STREAM firehose ( src SERVICE, v REAL )
		ON OVERLOAD SHED_NEWEST CAPACITY 32;`, 0); err != nil {
		t.Fatal(err)
	}
	dump := c.Dump()
	if !strings.Contains(dump, "ON OVERLOAD SHED_NEWEST CAPACITY 32;") {
		t.Fatalf("dump missing overload clause:\n%s", dump)
	}
	reg2, _ := paperenv.MustRegistry()
	c2 := catalog.New(reg2)
	if err := execScript(c2, dump, 0); err != nil {
		t.Fatalf("restoring dump failed: %v\n%s", err, dump)
	}
	x, err := c2.Relation("firehose")
	if err != nil {
		t.Fatal(err)
	}
	pol, capacity, ok := x.OverloadPolicy()
	if !ok || pol != resilience.ShedNewest || capacity != 32 {
		t.Fatalf("restored policy = %v/%d/%v", pol, capacity, ok)
	}
	if c2.Dump() != dump {
		t.Fatal("dump not idempotent across restore")
	}
}
