package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"serena/internal/schema"
	"serena/internal/value"
)

func tempProto() *schema.Prototype {
	return schema.MustPrototype("getTemperature", nil,
		schema.MustRel(schema.Attribute{Name: "temperature", Type: value.Real}), false)
}

func sendProto() *schema.Prototype {
	return schema.MustPrototype("sendMessage",
		schema.MustRel(schema.Attribute{Name: "address", Type: value.String},
			schema.Attribute{Name: "text", Type: value.String}),
		schema.MustRel(schema.Attribute{Name: "sent", Type: value.Bool}), true)
}

func tempService(ref string, temp float64) *Func {
	return NewFunc(ref, map[string]InvokeFunc{
		"getTemperature": func(_ value.Tuple, at Instant) ([]value.Tuple, error) {
			return []value.Tuple{{value.NewReal(temp + float64(at))}}, nil
		},
	})
}

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	if err := r.RegisterPrototype(tempProto()); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterPrototype(sendProto()); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFuncService(t *testing.T) {
	s := tempService("sensor01", 20)
	if s.Ref() != "sensor01" || !s.Implements("getTemperature") || s.Implements("other") {
		t.Fatal("Func basics broken")
	}
	if got := s.PrototypeNames(); len(got) != 1 || got[0] != "getTemperature" {
		t.Fatalf("PrototypeNames = %v", got)
	}
	rows, err := s.Invoke(context.Background(), "getTemperature", nil, 5)
	if err != nil || len(rows) != 1 || rows[0][0].Real() != 25 {
		t.Fatalf("Invoke = %v, %v", rows, err)
	}
	if _, err := s.Invoke(context.Background(), "nope", nil, 0); !errors.Is(err, ErrNotImplemented) {
		t.Fatalf("want ErrNotImplemented, got %v", err)
	}
}

func TestRegistryPrototypes(t *testing.T) {
	r := newTestRegistry(t)
	if _, err := r.Prototype("getTemperature"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Prototype("ghost"); !errors.Is(err, ErrUnknownPrototype) {
		t.Fatalf("want ErrUnknownPrototype, got %v", err)
	}
	// Identical re-registration is a no-op.
	if err := r.RegisterPrototype(tempProto()); err != nil {
		t.Fatalf("idempotent registration failed: %v", err)
	}
	// Conflicting redeclaration errors.
	conflict := schema.MustPrototype("getTemperature", nil,
		schema.MustRel(schema.Attribute{Name: "temperature", Type: value.Int}), false)
	if err := r.RegisterPrototype(conflict); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
	names := r.Prototypes()
	if len(names) != 2 || names[0].Name != "getTemperature" || names[1].Name != "sendMessage" {
		t.Fatalf("Prototypes = %v", names)
	}
}

func TestRegistryRegisterLookup(t *testing.T) {
	r := newTestRegistry(t)
	if err := r.Register(tempService("sensor01", 20)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(tempService("sensor01", 30)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate ref: want ErrDuplicate, got %v", err)
	}
	if _, err := r.Lookup("sensor01"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("ghost"); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("want ErrUnknownService, got %v", err)
	}
	// Claiming an undeclared prototype is rejected.
	bad := NewFunc("weird", map[string]InvokeFunc{"mystery": func(value.Tuple, Instant) ([]value.Tuple, error) { return nil, nil }})
	if err := r.Register(bad); !errors.Is(err, ErrUnknownPrototype) {
		t.Fatalf("want ErrUnknownPrototype, got %v", err)
	}
	if err := r.Register(nil); err == nil {
		t.Fatal("nil service accepted")
	}
}

func TestRegistryUnregister(t *testing.T) {
	r := newTestRegistry(t)
	_ = r.Register(tempService("sensor01", 20))
	if err := r.Unregister("sensor01"); err != nil {
		t.Fatal(err)
	}
	if err := r.Unregister("sensor01"); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("want ErrUnknownService, got %v", err)
	}
	if len(r.Refs()) != 0 {
		t.Fatal("service still listed after unregister")
	}
}

func TestRegistryImplementing(t *testing.T) {
	r := newTestRegistry(t)
	_ = r.Register(tempService("sensor22", 5))
	_ = r.Register(tempService("sensor01", 20))
	_ = r.Register(NewFunc("email", map[string]InvokeFunc{
		"sendMessage": func(in value.Tuple, _ Instant) ([]value.Tuple, error) {
			return []value.Tuple{{value.NewBool(true)}}, nil
		},
	}))
	got := r.Implementing("getTemperature")
	if len(got) != 2 || got[0] != "sensor01" || got[1] != "sensor22" {
		t.Fatalf("Implementing = %v (want sorted sensors)", got)
	}
	if got := r.Implementing("sendMessage"); len(got) != 1 || got[0] != "email" {
		t.Fatalf("Implementing(sendMessage) = %v", got)
	}
	if got := r.Implementing("ghost"); len(got) != 0 {
		t.Fatalf("Implementing(ghost) = %v", got)
	}
}

func TestRegistryInvoke(t *testing.T) {
	r := newTestRegistry(t)
	_ = r.Register(tempService("sensor01", 20))
	rows, err := r.Invoke("getTemperature", "sensor01", nil, 2)
	if err != nil || len(rows) != 1 || rows[0][0].Real() != 22 {
		t.Fatalf("Invoke = %v, %v", rows, err)
	}
	if _, err := r.Invoke("ghostProto", "sensor01", nil, 0); !errors.Is(err, ErrUnknownPrototype) {
		t.Fatal("unknown prototype not rejected")
	}
	if _, err := r.Invoke("getTemperature", "ghost", nil, 0); !errors.Is(err, ErrUnknownService) {
		t.Fatal("unknown service not rejected")
	}
	if _, err := r.Invoke("sendMessage", "sensor01", value.Tuple{value.NewString("a"), value.NewString("b")}, 0); !errors.Is(err, ErrNotImplemented) {
		t.Fatal("not-implemented not rejected")
	}
}

func TestRegistryInvokeConformance(t *testing.T) {
	r := newTestRegistry(t)
	// Service returning a wrong-typed output tuple must be caught.
	_ = r.Register(NewFunc("liar", map[string]InvokeFunc{
		"getTemperature": func(value.Tuple, Instant) ([]value.Tuple, error) {
			return []value.Tuple{{value.NewString("hot")}}, nil
		},
	}))
	if _, err := r.Invoke("getTemperature", "liar", nil, 0); err == nil {
		t.Fatal("ill-typed service output accepted")
	}
	// Input arity is validated against Input_ψ.
	_ = r.Register(NewFunc("email", map[string]InvokeFunc{
		"sendMessage": func(in value.Tuple, _ Instant) ([]value.Tuple, error) {
			return []value.Tuple{{value.NewBool(true)}}, nil
		},
	}))
	if _, err := r.Invoke("sendMessage", "email", value.Tuple{value.NewString("only-address")}, 0); err == nil {
		t.Fatal("ill-typed input accepted")
	}
	// Int input coerces to REAL parameters etc. via Conforms; sendMessage
	// takes two strings, valid call:
	rows, err := r.Invoke("sendMessage", "email",
		value.Tuple{value.NewString("a@b"), value.NewString("hi")}, 0)
	if err != nil || len(rows) != 1 || !rows[0][0].Bool() {
		t.Fatalf("valid invoke failed: %v %v", rows, err)
	}
}

func TestRegistryInvokeErrorWrapping(t *testing.T) {
	r := newTestRegistry(t)
	boom := errors.New("sensor on fire")
	_ = r.Register(NewFunc("bad", map[string]InvokeFunc{
		"getTemperature": func(value.Tuple, Instant) ([]value.Tuple, error) {
			return nil, boom
		},
	}))
	_, err := r.Invoke("getTemperature", "bad", nil, 0)
	if !errors.Is(err, boom) {
		t.Fatalf("service error not wrapped: %v", err)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := newTestRegistry(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ref := fmt.Sprintf("s-%d-%d", g, i)
				if err := r.Register(tempService(ref, 0)); err != nil {
					t.Error(err)
					return
				}
				if _, err := r.Invoke("getTemperature", ref, nil, Instant(i)); err != nil {
					t.Error(err)
					return
				}
				if err := r.Unregister(ref); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(r.Refs()) != 0 {
		t.Fatal("registry should be empty")
	}
}

func TestMemo(t *testing.T) {
	m := NewMemo()
	in := value.Tuple{value.NewString("office")}
	_, fl, st := m.Begin("p", "s", in)
	if st != BeginOwner {
		t.Fatalf("empty memo: Begin = %v, want BeginOwner", st)
	}
	rows := []value.Tuple{{value.NewReal(20)}}
	fl.Complete(rows, nil)
	got, _, st := m.Begin("p", "s", in)
	if st != BeginHit || len(got) != 1 || got[0][0].Real() != 20 {
		t.Fatalf("after Complete: Begin = %v %v, want a hit", st, got)
	}
	// Distinct key components must not collide.
	for _, k := range []struct {
		proto, ref string
		in         value.Tuple
	}{
		{"p", "s2", in},
		{"p2", "s", in},
		{"p", "s", value.Tuple{value.NewString("roof")}},
	} {
		if _, _, st := m.Begin(k.proto, k.ref, k.in); st != BeginOwner {
			t.Fatalf("Begin(%s, %s, %s) = %v, want BeginOwner (no collision)", k.proto, k.ref, k.in, st)
		}
	}
}
