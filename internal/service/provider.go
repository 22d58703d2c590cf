// Federation support: one service reference backed by several providers.
//
// In a multi-node PEMS the same service reference may be announced by more
// than one pemsd node (a replicated sensor, a mirrored gateway). The
// registry keeps every provider but exposes ONE service per reference —
// Definition 1's invoke_ψ stays a function — routed by rendezvous hashing:
// the provider with the highest hash(ref, node) owns the reference. Every
// node computes the same owner independently, and losing a node only remaps
// the references it owned (the minimal-disruption property that made
// rendezvous hashing the standard cluster-ownership rule).
//
// Node loss is masked at two layers. Discovery removes the dead node's
// providers — the reference survives, still listed by Implementing, as long
// as one replica remains (that is the masking: to the discovery X-Relations
// nothing happened). In-flight calls fail over inside the same
// invocation: a transport-class failure (resilience.ErrUnreachable /
// ErrOutcomeUnknown) reroutes to the next provider in rendezvous order,
// subject to the Definition 8 rule that an active invocation with an
// unknown outcome is never re-fired.
package service

import (
	"fmt"
	"sort"

	"serena/internal/resilience"
)

// provider is one node's implementation of a replicated service reference.
// A plain Register entry holds one provider with no node.
type provider struct {
	node  string
	svc   Service
	score uint64 // rendezvous score of (ref, node); owner = max
}

// rendezvousScore hashes (ref, node) to the provider's routing weight:
// FNV-1a with a splitmix-style finalizer (FNV alone avalanches its final
// bytes poorly over near-identical keys like node1/node2).
func rendezvousScore(ref, node string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(ref); i++ {
		h ^= uint64(ref[i])
		h *= prime
	}
	h ^= '|'
	h *= prime
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= prime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// RegisterProvider adds node's implementation of a service reference. The
// first provider of a reference creates it, exactly like Register; later
// providers of the same reference are replicas — to discovery the
// environment did not change. The rendezvous owner among current providers
// backs Lookup and receives invocations first. A reference created by
// plain Register cannot gain providers (ErrDuplicate), and re-registering
// the same node replaces its provider.
func (r *Registry) RegisterProvider(node string, s Service) error {
	if node == "" {
		return fmt.Errorf("service: provider needs a node name")
	}
	if s == nil || s.Ref() == "" {
		return fmt.Errorf("service: service needs a non-empty reference")
	}
	ref := s.Ref()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, pn := range s.PrototypeNames() {
		if _, ok := r.protos[pn]; !ok {
			return fmt.Errorf("%w: %s (claimed by service %s)", ErrUnknownPrototype, pn, ref)
		}
	}
	e, ok := r.services[ref]
	if ok && e.plain() {
		return fmt.Errorf("%w: service %s (registered without a provider node)", ErrDuplicate, ref)
	}
	p := provider{node: node, svc: s, score: rendezvousScore(ref, node)}
	if !ok {
		e = &svcEntry{providers: []provider{p}}
		r.services[ref] = e
		r.recountBatchableLocked(e, true)
		if r.breakers != nil {
			r.breakers.Reset(ref)
		}
		return nil
	}
	next := make([]provider, 0, len(e.providers)+1)
	for _, q := range e.providers {
		if q.node != node {
			next = append(next, q)
		}
	}
	e.reownLocked(append(next, p))
	r.recountBatchableLocked(e, false)
	return nil
}

// UnregisterProvider removes node's provider of a reference. The reference
// survives — silently, with ownership remapped — while any replica remains;
// only the LAST provider's departure removes the reference. Unknown
// (node, ref) pairs error.
func (r *Registry) UnregisterProvider(node, ref string) error {
	r.mu.Lock()
	e, ok := r.services[ref]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownService, ref)
	}
	next := make([]provider, 0, len(e.providers))
	for _, q := range e.providers {
		if q.node != node {
			next = append(next, q)
		}
	}
	switch {
	case e.plain() || len(next) == len(e.providers):
		r.mu.Unlock()
		return fmt.Errorf("%w: %s has no provider on node %q", ErrUnknownService, ref, node)
	case len(next) > 0:
		e.reownLocked(next)
		r.recountBatchableLocked(e, false)
	default:
		delete(r.services, ref)
		if e.batchCounted {
			r.batchable--
		}
	}
	r.mu.Unlock()
	return nil
}

// LocalRefs returns the sorted references registered directly (plain
// Register), excluding provider-backed entries discovered from other nodes.
// This is the set a node exports as ITS OWN over the wire (Describe) and in
// discovery announcements: re-exporting discovered providers would make
// every node claim every service, turning failover routing into forwarding
// chains and ownership ambiguous.
func (r *Registry) LocalRefs() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.services))
	for ref, e := range r.services {
		if e.plain() {
			out = append(out, ref)
		}
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// ProviderNodes reports the nodes providing a reference in rendezvous
// routing order (owner first). References registered without providers
// (plain Register) report nil.
func (r *Registry) ProviderNodes(ref string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.services[ref]
	if !ok || e.plain() {
		return nil
	}
	out := make([]string, len(e.providers))
	for i, p := range e.providers {
		out[i] = p.node
	}
	return out
}

// plain reports whether the entry was made by Register rather than by
// RegisterProvider.
func (e *svcEntry) plain() bool { return e.providers[0].node == "" }

// reownLocked installs next as the entry's providers, sorted by descending
// rendezvous score (node name breaks exact-score ties deterministically),
// which makes next[0] the owner. next is always a fresh slice: invocations
// read the providers slice after releasing r.mu, so a published slice is
// never written again. Callers hold r.mu.
func (e *svcEntry) reownLocked(next []provider) {
	sort.Slice(next, func(i, j int) bool {
		if next[i].score != next[j].score {
			return next[i].score > next[j].score
		}
		return next[i].node < next[j].node
	})
	e.providers = next
}

// recountBatchableLocked reconciles the registry's batch-transport count
// with the entry's current providers (any batch-capable provider counts the
// entry once). Callers hold r.mu; created marks a brand-new entry.
func (r *Registry) recountBatchableLocked(e *svcEntry, created bool) {
	has := false
	for _, p := range e.providers {
		if _, ok := p.svc.(Batcher); ok {
			has = true
			break
		}
	}
	if created {
		e.batchCounted = has
		if has {
			r.batchable++
		}
		return
	}
	if has && !e.batchCounted {
		r.batchable++
	} else if !has && e.batchCounted {
		r.batchable--
	}
	e.batchCounted = has
}

// NodeBreakers returns the per-node breaker set (never nil). Node breakers
// are always on, with the default resilience.BreakerPolicy: they are fed
// exclusively by transport-class outcomes of provider-backed invocations,
// so a healthy single-process deployment never trips one, and an Open node
// breaker deprioritizes ALL of that node's providers in routing order — the
// cluster-level analogue of how an open per-service breaker masks one
// reference.
func (r *Registry) NodeBreakers() *resilience.BreakerSet { return r.nodeBreakers }

// NodeBreakerStates snapshots every tracked node breaker.
func (r *Registry) NodeBreakerStates() map[string]resilience.State {
	return r.NodeBreakers().States()
}

// onProviderResult feeds a provider's transport outcome into the node
// breakers: successes and transport-class failures count, application
// errors do not (the node answered — it is healthy even if the device
// errored). Local candidates (no node) are skipped.
func onProviderResult(nb *resilience.BreakerSet, p provider, err error) {
	if nb == nil || p.node == "" {
		return
	}
	if err == nil {
		nb.OnResult(p.node, true)
		return
	}
	if resilience.IsTransport(err) {
		nb.OnResult(p.node, false)
	}
}
