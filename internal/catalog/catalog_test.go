package catalog_test

import (
	"strings"
	"testing"

	"serena/internal/algebra"
	"serena/internal/catalog"
	"serena/internal/ddl"
	"serena/internal/paperenv"
	"serena/internal/query"
	"serena/internal/sal"
	"serena/internal/service"
)

// scenarioDDL declares the paper's environment (Tables 1+2 plus the data of
// Sections 1.2 and 2.2) in pure DDL.
const scenarioDDL = `
PROTOTYPE sendMessage( address STRING, text STRING ) : (sent BOOLEAN) ACTIVE;
PROTOTYPE checkPhoto( area STRING ) : (quality INTEGER, delay REAL );
PROTOTYPE takePhoto( area STRING, quality INTEGER ) : (photo BLOB );
PROTOTYPE getTemperature( ) : (temperature REAL );

EXTENDED RELATION contacts (
  name STRING, address STRING, text STRING VIRTUAL,
  messenger SERVICE, sent BOOLEAN VIRTUAL
) USING BINDING PATTERNS ( sendMessage[messenger] ( address, text ) : ( sent ) );

EXTENDED RELATION cameras (
  camera SERVICE, area STRING, quality INTEGER VIRTUAL,
  delay REAL VIRTUAL, photo BLOB VIRTUAL
) USING BINDING PATTERNS (
  checkPhoto[camera] ( area ) : ( quality, delay ),
  takePhoto[camera] ( area, quality ) : ( photo )
);

EXTENDED STREAM temperatures ( sensor SERVICE, location STRING, temperature REAL );

INSERT INTO contacts VALUES
  ("Nicolas", "nicolas@elysee.fr", email),
  ("Carla", "carla@elysee.fr", email),
  ("Francois", "francois@im.gouv.fr", jabber);
INSERT INTO cameras VALUES
  (camera01, "corridor"), (camera02, "office"), (webcam07, "roof");
`

// execScript parses a DDL script and executes its statements in order, as
// a PEMS does.
func execScript(c *catalog.Catalog, src string, at service.Instant) error {
	stmts, err := ddl.Parse(src)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if err := c.Execute(st, at); err != nil {
			return err
		}
	}
	return nil
}

func newCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	reg, _ := paperenv.MustRegistry() // live devices + prototypes
	c := catalog.New(reg)
	// Prototypes in the script are idempotent re-registrations.
	if err := execScript(c, scenarioDDL, 0); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestScenarioDDLBuildsEnvironment(t *testing.T) {
	c := newCatalog(t)
	if got := strings.Join(c.Names(), ","); got != "cameras,contacts,temperatures" {
		t.Fatalf("Names = %q", got)
	}
	contacts, err := c.Relation("contacts")
	if err != nil {
		t.Fatal(err)
	}
	if contacts.Infinite() {
		t.Fatal("contacts must be finite")
	}
	if len(contacts.Current()) != 3 {
		t.Fatalf("contacts rows = %d", len(contacts.Current()))
	}
	sch := contacts.Schema()
	if !sch.Equal(paperenv.ContactsSchema()) {
		t.Fatalf("DDL schema differs from hand-built schema:\n%s\nvs\n%s", sch, paperenv.ContactsSchema())
	}
	temps, _ := c.Relation("temperatures")
	if !temps.Infinite() {
		t.Fatal("temperatures must be a stream")
	}
	cams, _ := c.Relation("cameras")
	if !cams.Schema().Equal(paperenv.CamerasSchema()) {
		t.Fatal("cameras schema differs from hand-built schema")
	}
}

func TestDDLQueriesEndToEnd(t *testing.T) {
	// DDL-declared environment + SAL-parsed Q1 = the full declarative loop.
	reg, dev := paperenv.MustRegistry()
	c := catalog.New(reg)
	if err := execScript(c, scenarioDDL, 0); err != nil {
		t.Fatal(err)
	}
	q, err := sal.Parse(`invoke[sendMessage](assign[text := "Bonjour!"](select[name != "Carla"](contacts)))`)
	if err != nil {
		t.Fatal(err)
	}
	contacts, err := c.Relation("contacts")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := algebra.New(contacts.Schema(), contacts.Current())
	if err != nil {
		t.Fatal(err)
	}
	res, err := query.Evaluate(q, query.MapEnv{"contacts": rel}, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 2 || res.Actions.Len() != 2 {
		t.Fatalf("Q1 over DDL environment: %d rows, %s", res.Relation.Len(), res.Actions)
	}
	if len(dev.Messengers["email"].Outbox()) != 1 {
		t.Fatal("side effects missing")
	}
}

func TestExplicitBPListValidation(t *testing.T) {
	reg, _ := paperenv.MustRegistry()
	c := catalog.New(reg)
	// Wrong input list order vs prototype declaration.
	err := execScript(c, `EXTENDED RELATION r (
		a STRING, t STRING VIRTUAL, m SERVICE, s BOOLEAN VIRTUAL
	) USING BINDING PATTERNS ( sendMessage[m] ( t, a ) : ( s ) );`, 0)
	if err == nil {
		t.Fatal("mismatched explicit BP list accepted")
	}
	// Wrong arity.
	err = execScript(c, `EXTENDED RELATION r2 (
		address STRING, text STRING VIRTUAL, m SERVICE, sent BOOLEAN VIRTUAL
	) USING BINDING PATTERNS ( sendMessage[m] ( address ) : ( sent ) );`, 0)
	if err == nil {
		t.Fatal("wrong-arity explicit BP list accepted")
	}
	// Matching lists pass (attribute names must equal prototype names).
	err = execScript(c, `EXTENDED RELATION r3 (
		address STRING, text STRING VIRTUAL, m SERVICE, sent BOOLEAN VIRTUAL
	) USING BINDING PATTERNS ( sendMessage[m] ( address, text ) : ( sent ) );`, 0)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnknownPrototypeInBP(t *testing.T) {
	reg := service.NewRegistry()
	c := catalog.New(reg)
	err := execScript(c, `EXTENDED RELATION r (
		s SERVICE, x REAL VIRTUAL
	) USING BINDING PATTERNS ( mystery[s] );`, 0)
	if err == nil {
		t.Fatal("unknown prototype accepted")
	}
}

func TestInsertDeleteLifecycle(t *testing.T) {
	c := newCatalog(t)
	if err := execScript(c, `INSERT INTO contacts VALUES ("Zoe", "zoe@x", email);`, 1); err != nil {
		t.Fatal(err)
	}
	contacts, _ := c.Relation("contacts")
	if len(contacts.Current()) != 4 {
		t.Fatal("insert failed")
	}
	if err := execScript(c, `DELETE FROM contacts VALUES ("Zoe", "zoe@x", email);`, 2); err != nil {
		t.Fatal(err)
	}
	if len(contacts.Current()) != 3 {
		t.Fatal("delete failed")
	}
	// Deleting a never-inserted row errors.
	if err := execScript(c, `DELETE FROM contacts VALUES ("Ghost", "g@x", email);`, 3); err == nil {
		t.Fatal("deleting absent row accepted")
	}
	// Ill-typed insert errors.
	if err := execScript(c, `INSERT INTO contacts VALUES (42, "x@y", email);`, 4); err == nil {
		t.Fatal("ill-typed insert accepted")
	}
	// Insert into stream works; delete from stream fails.
	if err := execScript(c, `INSERT INTO temperatures VALUES (sensor01, "corridor", 20.5);`, 5); err != nil {
		t.Fatal(err)
	}
	if err := execScript(c, `DELETE FROM temperatures VALUES (sensor01, "corridor", 20.5);`, 6); err == nil {
		t.Fatal("stream delete accepted")
	}
}

func TestDropRelation(t *testing.T) {
	c := newCatalog(t)
	dropped := ""
	c.OnDropRelation = func(name string) { dropped = name }
	if err := c.Execute(&ddl.Drop{Name: "cameras"}, 0); err != nil {
		t.Fatal(err)
	}
	if dropped != "cameras" {
		t.Fatal("drop callback not fired")
	}
	if _, err := c.Relation("cameras"); err == nil {
		t.Fatal("dropped relation still resolvable")
	}
	if err := c.Execute(&ddl.Drop{Name: "cameras"}, 0); err == nil {
		t.Fatal("double drop accepted")
	}
}

func TestDuplicateRelation(t *testing.T) {
	c := newCatalog(t)
	err := execScript(c, `EXTENDED RELATION contacts ( x STRING );`, 0)
	if err == nil {
		t.Fatal("duplicate relation accepted")
	}
}

func TestServiceFactoryStub(t *testing.T) {
	reg := service.NewRegistry()
	c := catalog.New(reg)
	script := `
PROTOTYPE ping( ) : ( pong BOOLEAN );
SERVICE stub01 IMPLEMENTS ping;
`
	if err := execScript(c, script, 0); err != nil {
		t.Fatal(err)
	}
	rows, err := reg.Invoke("ping", "stub01", nil, 0)
	if err != nil || len(rows) != 0 {
		t.Fatalf("stub service should return empty relation: %v %v", rows, err)
	}
}

func TestCatalogEnvSnapshot(t *testing.T) {
	c := newCatalog(t)
	if err := execScript(c, `INSERT INTO contacts VALUES ("Zoe", "zoe@x", email);`, 10); err != nil {
		t.Fatal(err)
	}
	contacts, err := c.Relation("contacts")
	if err != nil {
		t.Fatal(err)
	}
	// The relation at instant 5 must not see Zoe.
	if n := len(contacts.At(5)); n != 3 {
		t.Fatalf("contacts at 5 has %d rows, want 3", n)
	}
	if n := len(contacts.At(10)); n != 4 {
		t.Fatalf("contacts at 10 has %d rows, want 4", n)
	}
	if _, err := c.Relation("ghost"); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

func TestURSAEnforcement(t *testing.T) {
	c := newCatalog(t)
	// 'name' is STRING in contacts; declaring it INTEGER elsewhere violates
	// URSA (Section 2.3.2).
	err := execScript(c, `EXTENDED RELATION badges ( name INTEGER, badge STRING );`, 0)
	if err == nil || !strings.Contains(err.Error(), "URSA") {
		t.Fatalf("URSA violation accepted: %v", err)
	}
	// Same name with the same type is fine.
	if err := execScript(c, `EXTENDED RELATION badges ( name STRING, badge STRING );`, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSysPrefixReservedForRelations(t *testing.T) {
	reg := service.NewRegistry()
	c := catalog.New(reg)
	err := execScript(c, `EXTENDED RELATION sys$mine ( n INTEGER );`, 0)
	if err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("creating a sys$ relation must be rejected, got %v", err)
	}
}
