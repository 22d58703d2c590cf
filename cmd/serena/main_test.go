package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"serena/internal/device"
	"serena/internal/pems"
	"serena/internal/service"
	"serena/internal/wire"
)

func TestLooksLikeDDL(t *testing.T) {
	yes := []string{
		"PROTOTYPE p( ) : (x INTEGER);",
		"insert into contacts values (1);",
		"EXTENDED RELATION r ( x INTEGER );",
		"drop relation r;",
		"  STREAM s ( x INTEGER );",
	}
	for _, s := range yes {
		if !looksLikeDDL(s) {
			t.Errorf("looksLikeDDL(%q) = false", s)
		}
	}
	no := []string{
		"project[name](contacts)",
		"SELECT * FROM contacts",
		"select[name = \"x\"](contacts)",
		".tick 3",
		"insertion_counts", // prefix of keyword but not a keyword
	}
	for _, s := range no {
		if looksLikeDDL(s) {
			t.Errorf("looksLikeDDL(%q) = true", s)
		}
	}
}

// captureOutput runs f with os.Stdout redirected and returns what it wrote.
func captureOutput(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.String()
	}()
	f()
	_ = w.Close()
	os.Stdout = old
	return <-done
}

func demoPEMS(t *testing.T) *pems.PEMS {
	t.Helper()
	p := pems.New()
	t.Cleanup(p.Close)
	if err := p.ExecuteDDL(prototypesDDL); err != nil {
		t.Fatal(err)
	}
	if err := loadDemoServices(p); err != nil {
		t.Fatal(err)
	}
	if err := p.ExecuteDDL(demoDDL); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCommandDispatch(t *testing.T) {
	p := demoPEMS(t)
	cases := []struct {
		line string
		want string // substring of output
	}{
		{".help", ".register"},
		{".services", "getTemperature"},
		{".tick 2", "clock at instant 1"},
		{".show contacts", "Nicolas"},
		{".show ghost", "error:"},
		{".schema contacts", "EXTENDED RELATION contacts"},
		{".schema ghost", "error:"},
		{".dump", "INSERT INTO contacts"},
		{".explain select[location = \"office\"](invoke[getTemperature](sensors))", "push-select-below-invoke"},
		{".explain", "usage:"},
		{".register watch SELECT location, temperature FROM temperatures[1] WHERE temperature > 90.0", "registered"},
		{".register", "usage:"},
		{".unregister watch", "ok"},
		{".unregister ghost", "error:"},
		{".unregister", "usage:"},
		{".bogus", "unknown command"},
		{".queries", "no continuous queries"},
		{".stats", "no continuous queries"},
		{".metrics", "service.invoke.calls{getTemperature|sensor01}"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if !command(p, c.line, &buf) {
			t.Errorf("%s: unexpected quit", c.line)
		}
		if !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s: output %q missing %q", c.line, buf.String(), c.want)
		}
	}
	// .quit returns false.
	if command(p, ".quit", io.Discard) {
		t.Error(".quit should stop the loop")
	}
}

func TestRunOneShotAndSQL(t *testing.T) {
	p := demoPEMS(t)
	render := func(f func(out io.Writer)) string {
		var buf bytes.Buffer
		f(&buf)
		return buf.String()
	}
	out := render(func(w io.Writer) { runQuery(p, `project[name](contacts)`, w) })
	if !strings.Contains(out, "Carla") || !strings.Contains(out, "3 tuple(s)") {
		t.Fatalf("one-shot output = %q", out)
	}
	out = render(func(w io.Writer) { runQuery(p, `SELECT name FROM contacts WHERE name = "Carla"`, w) })
	if !strings.Contains(out, "Carla") || !strings.Contains(out, "1 tuple(s)") {
		t.Fatalf("SQL output = %q", out)
	}
	out = render(func(w io.Writer) { runQuery(p, `select[`, w) })
	if !strings.Contains(out, "error:") {
		t.Fatalf("parse error not reported: %q", out)
	}
	out = render(func(w io.Writer) { runQuery(p, `SELECT ghost FROM contacts`, w) })
	if !strings.Contains(out, "error:") {
		t.Fatalf("SQL error not reported: %q", out)
	}
}

func TestAttachToNode(t *testing.T) {
	// Spin a wire server and attach it like `-connect` would.
	p := demoPEMS(t)
	node := newTestNode(t)
	out := captureOutput(t, func() {
		if err := attach(p, node); err != nil {
			t.Errorf("attach: %v", err)
		}
	})
	if !strings.Contains(out, "attached node") {
		t.Fatalf("attach output = %q", out)
	}
	if _, err := p.Registry().Lookup("remote-sensor"); err != nil {
		t.Fatal("remote service not registered")
	}
	// Unreachable address errors.
	if err := attach(p, "127.0.0.1:1"); err == nil {
		t.Fatal("attach to closed port succeeded")
	}
}

// newTestNode starts a wire server hosting one remote sensor and returns
// its address.
func newTestNode(t *testing.T) string {
	t.Helper()
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.GetTemperatureProto()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(device.NewSensor("remote-sensor", "lab", 20)); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer("test-node", reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr
}
