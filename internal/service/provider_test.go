package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"serena/internal/resilience"
	"serena/internal/value"
)

// errHealed marks a previously failing replica as healthy again
// (atomic.Value cannot store nil).
var errHealed = errors.New("healed")

func loadFault(v *atomic.Value) error {
	e, _ := v.Load().(error)
	if e == nil || errors.Is(e, errHealed) {
		return nil
	}
	return e
}

// replicaSensor builds a passive provider whose failure mode is switchable:
// store a transport sentinel (or any error) in errp to make it fail,
// errHealed to heal it. calls counts physical invocations.
func replicaSensor(ref string, errp *atomic.Value, calls *atomic.Int64) *Func {
	return NewFunc(ref, map[string]InvokeFunc{
		"getTemperature": func(_ value.Tuple, at Instant) ([]value.Tuple, error) {
			calls.Add(1)
			if e := loadFault(errp); e != nil {
				return nil, fmt.Errorf("link to %s: %w", ref, e)
			}
			return []value.Tuple{{value.NewReal(20 + float64(at))}}, nil
		},
	})
}

// replicaMessenger is the active counterpart (sendMessage has effects).
func replicaMessenger(ref string, errp *atomic.Value, calls *atomic.Int64) *Func {
	return NewFunc(ref, map[string]InvokeFunc{
		"sendMessage": func(in value.Tuple, _ Instant) ([]value.Tuple, error) {
			calls.Add(1)
			if e := loadFault(errp); e != nil {
				return nil, fmt.Errorf("link to %s: %w", ref, e)
			}
			return []value.Tuple{{value.NewBool(true)}}, nil
		},
	})
}

// twoProviders registers ref on nodes n1/n2 and returns (ownerNode,
// ownerErr, ownerCalls, backupErr, backupCalls) with the owner resolved
// from the registry's own rendezvous order — tests must not hard-code which
// node wins the hash.
func twoProviders(t *testing.T, r *Registry, ref string, active bool) (string, *atomic.Value, *atomic.Int64, *atomic.Value, *atomic.Int64) {
	t.Helper()
	var err1, err2 atomic.Value
	var calls1, calls2 atomic.Int64
	mk := replicaSensor
	if active {
		mk = replicaMessenger
	}
	if err := r.RegisterProvider("n1", mk(ref, &err1, &calls1)); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterProvider("n2", mk(ref, &err2, &calls2)); err != nil {
		t.Fatal(err)
	}
	nodes := r.ProviderNodes(ref)
	if len(nodes) != 2 {
		t.Fatalf("ProviderNodes = %v", nodes)
	}
	if nodes[0] == "n1" {
		return "n1", &err1, &calls1, &err2, &calls2
	}
	return "n2", &err2, &calls2, &err1, &calls1
}

func TestRendezvousOwnershipDeterministic(t *testing.T) {
	// The owner of (ref, nodes) is a pure function of the names: two
	// registries that learn the providers in opposite orders agree.
	a := newTestRegistry(t)
	b := newTestRegistry(t)
	var e atomic.Value
	var c atomic.Int64
	for _, n := range []string{"n1", "n2", "n3"} {
		if err := a.RegisterProvider(n, replicaSensor("s", &e, &c)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []string{"n3", "n2", "n1"} {
		if err := b.RegisterProvider(n, replicaSensor("s", &e, &c)); err != nil {
			t.Fatal(err)
		}
	}
	an, bn := a.ProviderNodes("s"), b.ProviderNodes("s")
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("rendezvous order differs: %v vs %v", an, bn)
		}
	}
	// Losing a non-owner node never remaps the owner (minimal disruption).
	owner := an[0]
	for _, n := range an[1:] {
		if err := a.UnregisterProvider(n, "s"); err != nil {
			t.Fatal(err)
		}
		if got := a.ProviderNodes("s")[0]; got != owner {
			t.Fatalf("owner remapped from %s to %s on losing %s", owner, got, n)
		}
	}
}

func TestProviderReplicaMasking(t *testing.T) {
	// The FIRST provider lists the reference; replicas arriving and leaving
	// never unlist it; only the LAST provider's departure does.
	r := newTestRegistry(t)
	var e atomic.Value
	var c atomic.Int64
	listed := func() bool {
		refs := r.Implementing("getTemperature")
		return len(refs) == 1 && refs[0] == "s"
	}
	if err := r.RegisterProvider("n1", replicaSensor("s", &e, &c)); err != nil {
		t.Fatal(err)
	}
	if !listed() {
		t.Fatalf("first provider: Implementing = %v", r.Implementing("getTemperature"))
	}
	if err := r.RegisterProvider("n2", replicaSensor("s", &e, &c)); err != nil {
		t.Fatal(err)
	}
	if err := r.UnregisterProvider("n1", "s"); err != nil {
		t.Fatal(err)
	}
	if !listed() {
		t.Fatalf("replica churn unlisted the reference: Implementing = %v", r.Implementing("getTemperature"))
	}
	if err := r.UnregisterProvider("n2", "s"); err != nil {
		t.Fatal(err)
	}
	if refs := r.Implementing("getTemperature"); len(refs) != 0 {
		t.Fatalf("last provider gone: Implementing = %v, want none", refs)
	}
}

func TestLocalRefsExcludeProviders(t *testing.T) {
	r := newTestRegistry(t)
	if err := r.Register(tempService("mine", 20)); err != nil {
		t.Fatal(err)
	}
	var e atomic.Value
	var c atomic.Int64
	if err := r.RegisterProvider("n1", replicaSensor("theirs", &e, &c)); err != nil {
		t.Fatal(err)
	}
	if got := r.LocalRefs(); len(got) != 1 || got[0] != "mine" {
		t.Fatalf("LocalRefs = %v, want [mine]", got)
	}
	// A plain-registered reference never gains providers: the node owns it.
	if err := r.RegisterProvider("n2", tempService("mine", 21)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("provider over plain ref: err = %v, want ErrDuplicate", err)
	}
}

func TestPassiveFailoverOnTransportError(t *testing.T) {
	r := newTestRegistry(t)
	for _, sentinel := range []error{resilience.ErrUnreachable, resilience.ErrOutcomeUnknown} {
		ref := fmt.Sprintf("s-%p", sentinel)
		_, ownerErr, ownerCalls, _, backupCalls := twoProviders(t, r, ref, false)
		ownerErr.Store(sentinel)
		rows, err := r.InvokeCtx(context.Background(), "getTemperature", ref, nil, 3)
		if err != nil || len(rows) != 1 {
			t.Fatalf("%v: failover invoke = %v, %v", sentinel, rows, err)
		}
		if ownerCalls.Load() != 1 || backupCalls.Load() != 1 {
			t.Fatalf("%v: calls owner=%d backup=%d, want 1/1", sentinel, ownerCalls.Load(), backupCalls.Load())
		}
	}
}

func TestNoFailoverOnApplicationError(t *testing.T) {
	// A node that ANSWERS with an error is healthy: rerouting would mask a
	// genuine device fault and double real work.
	r := newTestRegistry(t)
	_, ownerErr, _, _, backupCalls := twoProviders(t, r, "s", false)
	appErr := errors.New("sensor broke")
	ownerErr.Store(appErr)
	if _, err := r.InvokeCtx(context.Background(), "getTemperature", "s", nil, 3); !errors.Is(err, appErr) {
		t.Fatalf("err = %v, want the device error", err)
	}
	if backupCalls.Load() != 0 {
		t.Fatalf("application error leaked to the replica (%d calls)", backupCalls.Load())
	}
}

func TestActiveFailoverRules(t *testing.T) {
	r := newTestRegistry(t)
	in := value.Tuple{value.NewString("a@b"), value.NewString("hi")}

	// ErrUnreachable — the request never left — is safe to re-fire on a
	// replica even for an active invocation.
	_, ownerErr, _, _, backupCalls := twoProviders(t, r, "msg1", true)
	ownerErr.Store(resilience.ErrUnreachable)
	rows, err := r.InvokeCtx(context.Background(), "sendMessage", "msg1", in, 3)
	if err != nil || len(rows) != 1 {
		t.Fatalf("active unreachable failover = %v, %v", rows, err)
	}
	if backupCalls.Load() != 1 {
		t.Fatalf("backup calls = %d, want 1", backupCalls.Load())
	}

	// ErrOutcomeUnknown — the request MAY have fired — must never be
	// re-sent: Definition 8's effects are at-most-once.
	_, ownerErr2, _, _, backupCalls2 := twoProviders(t, r, "msg2", true)
	ownerErr2.Store(resilience.ErrOutcomeUnknown)
	if _, err := r.InvokeCtx(context.Background(), "sendMessage", "msg2", in, 3); !errors.Is(err, resilience.ErrOutcomeUnknown) {
		t.Fatalf("err = %v, want ErrOutcomeUnknown", err)
	}
	if backupCalls2.Load() != 0 {
		t.Fatalf("outcome-unknown active was re-fired on the replica (%d calls)", backupCalls2.Load())
	}
}

func TestNodeBreakerDemotesOpenNode(t *testing.T) {
	r := newTestRegistry(t)
	ownerNode, ownerErr, ownerCalls, _, backupCalls := twoProviders(t, r, "s", false)

	// Every call to the unreachable owner fails over to the replica, until
	// the owner's node breaker (default policy: 5 consecutive failures)
	// opens.
	ownerErr.Store(resilience.ErrUnreachable)
	failures := int64(0)
	for r.NodeBreakerStates()[ownerNode] != resilience.Open {
		if failures++; failures > 5 {
			t.Fatalf("owner breaker = %v after 5 transport failures, want Open", r.NodeBreakerStates()[ownerNode])
		}
		if _, err := r.InvokeCtx(context.Background(), "getTemperature", "s", nil, Instant(failures)); err != nil {
			t.Fatal(err)
		}
	}

	// The owner heals, but with its breaker open the replica is tried
	// first: no traffic goes to a node presumed down.
	ownerErr.Store(errHealed)
	before := ownerCalls.Load()
	if _, err := r.InvokeCtx(context.Background(), "getTemperature", "s", nil, Instant(failures+1)); err != nil {
		t.Fatal(err)
	}
	if ownerCalls.Load() != before {
		t.Fatalf("open-breaker owner still received traffic")
	}
	if backupCalls.Load() != failures+1 {
		t.Fatalf("backup calls = %d, want %d", backupCalls.Load(), failures+1)
	}
}

// batchReplica is a provider with a wire-style batch transport.
type batchReplica struct {
	*Func
	errp       *atomic.Value
	batchCalls atomic.Int64
}

func (b *batchReplica) InvokeBatch(_ context.Context, _ string, inputs []value.Tuple, at Instant) []InvokeResult {
	b.batchCalls.Add(1)
	out := make([]InvokeResult, len(inputs))
	for i := range inputs {
		if e := loadFault(b.errp); e != nil {
			out[i] = InvokeResult{Err: fmt.Errorf("batch link: %w", e)}
			continue
		}
		out[i] = InvokeResult{Rows: []value.Tuple{{value.NewReal(20 + float64(at))}}}
	}
	return out
}

func TestBatchFailoverReroutesFailedItems(t *testing.T) {
	r := newTestRegistry(t)
	var err1, err2 atomic.Value
	var c1, c2 atomic.Int64
	b1 := &batchReplica{Func: replicaSensor("s", &err1, &c1), errp: &err1}
	b2 := &batchReplica{Func: replicaSensor("s", &err2, &c2), errp: &err2}
	if err := r.RegisterProvider("n1", b1); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterProvider("n2", b2); err != nil {
		t.Fatal(err)
	}
	owner, backup := b1, b2
	if r.ProviderNodes("s")[0] == "n2" {
		owner, backup = b2, b1
	}
	owner.errp.Store(resilience.ErrOutcomeUnknown)

	inputs := []value.Tuple{nil, nil, nil}
	results := r.InvokeAll(context.Background(), "getTemperature", "s", inputs, 4)
	for i, res := range results {
		if res.Err != nil || len(res.Rows) != 1 {
			t.Fatalf("item %d after batch failover: %v, %v", i, res.Rows, res.Err)
		}
	}
	if owner.batchCalls.Load() != 1 || backup.batchCalls.Load() != 1 {
		t.Fatalf("batch frames owner=%d backup=%d, want one each", owner.batchCalls.Load(), backup.batchCalls.Load())
	}
}
