// Package service implements the service side of the Serena model (Gripay
// et al., EDBT 2010, Sections 2.1 and 2.3.1): services identified by service
// references, the prototypes they implement, and the invocation function
// invoke_ψ(s, t) → relation over Output_ψ (Definition 1).
//
// The registry is the in-process core of the paper's Environment Resource
// Manager: services register and withdraw dynamically, and the PEMS layer
// syncs its live service-discovery X-Relations from Implementing.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"serena/internal/obs"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/trace"
	"serena/internal/value"
)

// Instant is a discrete time instant τ ∈ T (Section 3.2: query evaluation
// happens at a given instant; services are deterministic at a given
// instant).
type Instant int64

// Sentinel errors returned by registry operations.
var (
	ErrUnknownService   = errors.New("service: unknown service reference")
	ErrUnknownPrototype = errors.New("service: unknown prototype")
	ErrNotImplemented   = errors.New("service: prototype not implemented by service")
	ErrDuplicate        = errors.New("service: duplicate registration")
)

// Service is an implementation of one or more prototypes, addressable by
// its service reference id(ω) (Section 2.3.1). Invoke must terminate (the
// paper's tractability assumption) and must be deterministic for a fixed
// (proto, input, at) triple within one instant.
//
// Invoke must return once ctx is done: the registry's invoke timeout and the
// caller's deadline reach a service only through ctx. A service that ignores
// its context can stall the operator that invoked it.
type Service interface {
	// Ref returns the service reference id(ω) ∈ D.
	Ref() string
	// PrototypeNames returns the names of prototypes(ω), sorted.
	PrototypeNames() []string
	// Implements reports whether the named prototype is in prototypes(ω).
	Implements(proto string) bool
	// Invoke runs the named prototype with the given input tuple (over
	// Input_ψ) at the given instant and returns a relation over Output_ψ.
	Invoke(ctx context.Context, proto string, input value.Tuple, at Instant) ([]value.Tuple, error)
}

// InvokeResult is one input's outcome within a multi-input invocation.
type InvokeResult struct {
	Rows []value.Tuple
	Err  error
}

// Batcher is the optional Service extension for a transport that carries
// many invocations of one prototype in one round trip (the wire's batch
// frame). Results are positional — out[i] is inputs[i]'s outcome — and one
// item's failure must not fail its neighbours.
type Batcher interface {
	InvokeBatch(ctx context.Context, proto string, inputs []value.Tuple, at Instant) []InvokeResult
}

// InvokeFunc is the body of one prototype implementation. It receives no
// context, so it must return promptly: a deadline cannot cut it short.
type InvokeFunc func(input value.Tuple, at Instant) ([]value.Tuple, error)

// Func is a Service assembled from per-prototype functions. It is the
// standard way to wrap simulated devices and network stubs.
type Func struct {
	ref   string
	impls map[string]InvokeFunc
}

// NewFunc builds a function-backed service.
func NewFunc(ref string, impls map[string]InvokeFunc) *Func {
	cp := make(map[string]InvokeFunc, len(impls))
	for k, v := range impls {
		cp[k] = v
	}
	return &Func{ref: ref, impls: cp}
}

// Ref implements Service.
func (f *Func) Ref() string { return f.ref }

// PrototypeNames implements Service.
func (f *Func) PrototypeNames() []string {
	out := make([]string, 0, len(f.impls))
	for name := range f.impls {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Implements implements Service.
func (f *Func) Implements(proto string) bool { _, ok := f.impls[proto]; return ok }

// Invoke implements Service. The context is not consulted; see InvokeFunc.
func (f *Func) Invoke(_ context.Context, proto string, input value.Tuple, at Instant) ([]value.Tuple, error) {
	fn, ok := f.impls[proto]
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrNotImplemented, proto, f.ref)
	}
	return fn(input, at)
}

// Registry tracks the prototypes and services of a relational pervasive
// environment. It is safe for concurrent use.
//
// Fault tolerance (see resilient.go), fixed at construction by Options: an
// optional per-invocation timeout, a retry policy applied only to passive
// prototypes, and per-service circuit breakers whose open state masks the
// service out of discovery.
type Registry struct {
	mu       sync.RWMutex
	protos   map[string]*schema.Prototype
	services map[string]*svcEntry

	// batchable counts registered services exposing a batch transport
	// (a Batcher — remote proxies). The β dispatcher consults it:
	// with none registered, grouping is pure overhead over the per-item
	// path, so its default stays off.
	batchable int

	// The fault-tolerance policy, fixed at construction and read without
	// the lock.
	invokeTimeout time.Duration
	retry         resilience.RetryPolicy
	breakers      *resilience.BreakerSet
	// nodeBreakers trips per NODE (never nil): fed only by transport-class
	// outcomes of provider-backed invocations, an Open node breaker demotes
	// all of that node's providers in routing order (see provider.go).
	nodeBreakers *resilience.BreakerSet

	// The engine's metrics and tracer: every layer built over this registry
	// records its own work into them, so two engines in one process never
	// share a count or a span. invoke caches the invocation metrics.
	metrics *obs.Metrics
	tracer  *trace.Tracer
	invoke  invokeObs
}

// NewRegistry returns an empty registry with a metrics registry and a
// tracer of its own. An Options value, if given, sets its fault-tolerance
// policy; without one the registry has no invoke timeout, no retry and no
// per-service breakers.
func NewRegistry(opts ...Options) *Registry {
	r := &Registry{
		protos:   make(map[string]*schema.Prototype),
		services: make(map[string]*svcEntry),
		metrics:  obs.New(),
		tracer:   trace.New(trace.DefaultRingSize, trace.DefaultSampleEvery),
	}
	r.invoke = newInvokeObs(r.metrics)
	r.nodeBreakers = r.newBreakerSet(resilience.BreakerPolicy{}, "resilience.node_breaker.transitions")
	if len(opts) > 0 {
		o := opts[0]
		r.invokeTimeout, r.retry = o.InvokeTimeout, o.Retry
		if o.Breakers != nil {
			r.breakers = r.newBreakerSet(*o.Breakers, "resilience.breaker.transitions")
		}
	}
	return r
}

// Metrics returns the engine's metrics registry.
func (r *Registry) Metrics() *obs.Metrics { return r.metrics }

// Tracer returns the engine's tracer.
func (r *Registry) Tracer() *trace.Tracer { return r.tracer }

// RegisterPrototype declares a prototype. Re-registering an identical
// declaration is a no-op; a conflicting one errors.
func (r *Registry) RegisterPrototype(p *schema.Prototype) error {
	if p == nil {
		return fmt.Errorf("service: nil prototype")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.protos[p.Name]; ok {
		if old.Active == p.Active && old.Input.Equal(p.Input) && old.Output.Equal(p.Output) {
			return nil
		}
		return fmt.Errorf("%w: prototype %s redeclared differently", ErrDuplicate, p.Name)
	}
	r.protos[p.Name] = p
	return nil
}

// Prototype looks a prototype up by name.
func (r *Registry) Prototype(name string) (*schema.Prototype, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.protos[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPrototype, name)
	}
	return p, nil
}

// Prototypes returns all declared prototypes sorted by name.
func (r *Registry) Prototypes() []*schema.Prototype {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*schema.Prototype, 0, len(r.protos))
	for _, p := range r.protos {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Register adds a service to the environment. Every prototype the service
// claims must have been declared.
func (r *Registry) Register(s Service) error {
	if s == nil || s.Ref() == "" {
		return fmt.Errorf("service: service needs a non-empty reference")
	}
	r.mu.Lock()
	if _, dup := r.services[s.Ref()]; dup {
		r.mu.Unlock()
		return fmt.Errorf("%w: service %s", ErrDuplicate, s.Ref())
	}
	for _, pn := range s.PrototypeNames() {
		if _, ok := r.protos[pn]; !ok {
			r.mu.Unlock()
			return fmt.Errorf("%w: %s (claimed by service %s)", ErrUnknownPrototype, pn, s.Ref())
		}
	}
	e := &svcEntry{providers: []provider{{svc: s}}}
	r.services[s.Ref()] = e
	r.recountBatchableLocked(e, true)
	if r.breakers != nil {
		// A (re)registered service starts with a clean slate: whatever
		// failure history its reference accumulated belongs to the departed
		// instance.
		r.breakers.Reset(s.Ref())
	}
	r.mu.Unlock()
	return nil
}

// Unregister removes a service (e.g. a failing sensor). Unknown references
// error.
func (r *Registry) Unregister(ref string) error {
	r.mu.Lock()
	e, ok := r.services[ref]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownService, ref)
	}
	delete(r.services, ref)
	if e.batchCounted {
		r.batchable--
	}
	r.mu.Unlock()
	return nil
}

// HasBatchTransport reports whether any registered service can carry many
// invocations in one frame (a Batcher, e.g. a wire.Remote proxy).
func (r *Registry) HasBatchTransport() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.batchable > 0
}

// Lookup resolves a service reference.
func (r *Registry) Lookup(ref string) (Service, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.services[ref]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownService, ref)
	}
	return e.providers[0].svc, nil
}

// Refs returns all registered service references, sorted.
func (r *Registry) Refs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.services))
	for ref := range r.services {
		out = append(out, ref)
	}
	sort.Strings(out)
	return out
}

// Implementing returns the sorted references of services implementing the
// named prototype — the source of the paper's service-discovery relations.
// Services whose circuit breaker is open are masked out: to the discovery
// X-Relations a tripped service looks temporarily withdrawn, and it
// reappears once the breaker cools down to half-open (Section 2.3's dynamic
// register/withdraw, driven by observed health).
func (r *Registry) Implementing(proto string) []string {
	breakers := r.breakers
	r.mu.RLock()
	var out []string
	for ref, e := range r.services {
		if e.providers[0].svc.Implements(proto) {
			out = append(out, ref)
		}
	}
	r.mu.RUnlock()
	if breakers != nil {
		kept := out[:0]
		for _, ref := range out {
			if breakers.State(ref) != resilience.Open {
				kept = append(kept, ref)
			}
		}
		out = kept
	}
	sort.Strings(out)
	return out
}
