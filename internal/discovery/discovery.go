// Package discovery implements the dynamic service-discovery half of the
// PEMS Environment Resource Manager (Gripay et al., EDBT 2010, Figure 1 and
// Section 5.1): Local ERMs announce themselves on a bus (the stand-in for
// UPnP SSDP multicast), and the core ERM's Manager dials announced nodes,
// describes their services and registers remote proxies into the central
// registry — unregistering them on bye messages, lease expiry or connection
// failure. Newly discovered services become visible to running continuous
// queries without restarting them (the Section 5.2 experiment).
package discovery

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"serena/internal/service"
	"serena/internal/wire"
)

// Kind tags announcements.
type Kind uint8

// Announcement kinds, mirroring SSDP ssdp:alive / ssdp:byebye.
const (
	Alive Kind = iota
	Bye
)

// Announcement is one presence message from a Local ERM. Services
// optionally carries the announcing node's hosted service catalog, so a
// relayed announcement (the wire-backed bus forwards frames between pemsd
// peers) describes the node without every listener dialing it. Catalog
// marks Services as that whole catalog, even when it is empty; without it
// the announcement carries no catalog.
type Announcement struct {
	Kind     Kind
	Node     string
	Addr     string // TCP address of the node's wire server
	Services []wire.ServiceInfo
	Catalog  bool
}

// Bus transports announcements between Local ERMs and core ERMs. The
// in-process implementation stands in for UDP multicast; its semantics
// (fire-and-forget fan-out) match.
type Bus interface {
	// Announce broadcasts a message to all current subscribers.
	Announce(a Announcement)
	// Subscribe returns a channel of future announcements and a cancel
	// function.
	Subscribe() (<-chan Announcement, func())
}

// InProcBus is a Bus for tests, examples and single-process deployments.
type InProcBus struct {
	mu   sync.Mutex
	subs map[int]chan Announcement
	next int
}

// NewInProcBus returns an empty bus.
func NewInProcBus() *InProcBus {
	return &InProcBus{subs: make(map[int]chan Announcement)}
}

// Announce implements Bus.
func (b *InProcBus) Announce(a Announcement) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ch := range b.subs {
		select {
		case ch <- a:
		default: // slow subscriber: drop, like multicast would
		}
	}
}

// Subscribe implements Bus.
func (b *InProcBus) Subscribe() (<-chan Announcement, func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.next
	b.next++
	ch := make(chan Announcement, 128)
	b.subs[id] = ch
	return ch, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if c, ok := b.subs[id]; ok {
			delete(b.subs, id)
			close(c)
		}
	}
}

// Node is a Local Environment Resource Manager: a wire server over a local
// registry plus bus announcements. Services register to their Node and are
// then transparently available through any core ERM (Section 5.1).
type Node struct {
	name   string
	bus    Bus
	local  *service.Registry
	server *wire.Server
	addr   string
}

// NewNode creates a Local ERM with its own local registry.
func NewNode(name string, bus Bus) *Node {
	reg := service.NewRegistry()
	return &Node{name: name, bus: bus, local: reg, server: wire.NewServer(name, reg)}
}

// Registry returns the node's local registry (declare prototypes and
// register device services here).
func (n *Node) Registry() *service.Registry { return n.local }

// Addr returns the bound wire address (after Start).
func (n *Node) Addr() string { return n.addr }

// Start listens on addr ("127.0.0.1:0" for ephemeral) and announces the
// node on the bus.
func (n *Node) Start(addr string) error {
	bound, err := n.server.Listen(addr)
	if err != nil {
		return err
	}
	n.addr = bound
	n.Announce()
	return nil
}

// Announce re-broadcasts an alive message carrying the node's current
// service catalog: a lease renewal, and a re-describe for managers whose
// view of the catalog is stale.
func (n *Node) Announce() {
	if n.addr != "" {
		n.bus.Announce(Announcement{Kind: Alive, Node: n.name, Addr: n.addr, Services: hostedCatalog(n.local), Catalog: true})
	}
}

// hostedCatalog lists the registry's locally hosted services (LocalRefs —
// never discovered providers, which would re-export other nodes' catalogs
// and create forwarding chains).
func hostedCatalog(reg *service.Registry) []wire.ServiceInfo {
	refs := reg.LocalRefs()
	out := make([]wire.ServiceInfo, 0, len(refs))
	for _, ref := range refs {
		svc, err := reg.Lookup(ref)
		if err != nil {
			continue
		}
		out = append(out, wire.ServiceInfo{Ref: ref, Prototypes: svc.PrototypeNames()})
	}
	return out
}

// Stop announces a bye and shuts the wire server down.
func (n *Node) Stop() error {
	if n.addr != "" {
		n.bus.Announce(Announcement{Kind: Bye, Node: n.name, Addr: n.addr})
	}
	return n.server.Close()
}

// Manager is the discovery side of the core ERM: it subscribes to the bus
// and maintains remote-service proxies inside the central registry.
type Manager struct {
	central *service.Registry
	bus     Bus
	lease   time.Duration

	mu     sync.Mutex
	nodes  map[string]*nodeState // by node name
	downs  map[string]*peerDown  // tombstones of departed nodes, by name
	cancel func()
	wg     sync.WaitGroup
	donec  chan struct{}
}

type nodeState struct {
	addr   string
	client *wire.Client
	// refs are the references registered as this node's providers;
	// catalog is every reference the node last described, sorted (a
	// reference colliding with a local service is in catalog only).
	refs     []string
	catalog  []string
	deadline time.Time
	since    time.Time
}

// peerDown is the tombstone of a departed node, kept for operational
// visibility (sys$peers, .peers, /debug/peers) and cleared when the node
// re-announces.
type peerDown struct {
	addr   string
	reason string // "bye" or "lease_expired"
	since  time.Time
}

// Peer states reported by Manager.Peers.
const (
	PeerAlive = "alive"
	PeerDown  = "down"
)

// PeerInfo is one row of the manager's membership view.
type PeerInfo struct {
	Node     string
	Addr     string
	State    string // PeerAlive or PeerDown
	Lease    time.Duration
	Deadline time.Time // lease deadline (alive peers)
	Services int       // services this peer currently provides centrally
	Reason   string    // why a down peer left ("bye", "lease_expired")
	Since    time.Time // when the peer entered its current state
}

// dialTimeout bounds the manager's wire dial to an announced node and the
// bus's dial and send to a joined peer.
const dialTimeout = 2 * time.Second

// Option configures a Manager.
type Option func(*Manager)

// WithLease sets how long a node stays registered without re-announcing
// (default 30s; 0 disables expiry).
func WithLease(d time.Duration) Option {
	return func(m *Manager) { m.lease = d }
}

// NewManager builds a core-ERM discovery manager feeding the central
// registry.
func NewManager(central *service.Registry, bus Bus, opts ...Option) *Manager {
	m := &Manager{
		central: central,
		bus:     bus,
		lease:   30 * time.Second,
		nodes:   make(map[string]*nodeState),
		downs:   make(map[string]*peerDown),
		donec:   make(chan struct{}),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Start subscribes to the bus and processes announcements until Stop. When
// a lease is configured it also starts a background sweeper that expires
// silent nodes on its own — a node that dies without a bye message (crash,
// partition, power loss) is masked out of the central registry within about
// a lease period even if nobody calls SweepExpired by hand.
func (m *Manager) Start() {
	ch, cancel := m.bus.Subscribe()
	m.mu.Lock()
	m.cancel = cancel
	done := m.donec
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for a := range ch {
			switch a.Kind {
			case Alive:
				if err := m.handleAlive(a); err != nil {
					// Unreachable node: ignore; it may re-announce later.
					continue
				}
			case Bye:
				m.removeNode(a.Node, "bye")
			}
		}
	}()
	if m.lease <= 0 || done == nil {
		return
	}
	// Sweep at a quarter of the lease so expiry latency stays well under
	// one lease period even with ticker jitter.
	interval := m.lease / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-ticker.C:
				m.SweepExpired(now)
			}
		}
	}()
}

// Stop unsubscribes, halts the lease sweeper and drops all discovered
// services.
func (m *Manager) Stop() {
	m.mu.Lock()
	cancel := m.cancel
	m.cancel = nil
	done := m.donec
	m.donec = nil
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if done != nil {
		close(done)
	}
	m.wg.Wait()
	m.mu.Lock()
	names := make([]string, 0, len(m.nodes))
	for name := range m.nodes {
		names = append(names, name)
	}
	m.mu.Unlock()
	for _, n := range names {
		m.removeNode(n, "")
	}
}

// handleAlive dials and (re-)registers a node's services. Services are
// registered as PROVIDERS keyed by the node name: a reference replicated on
// several nodes stays ONE service to discovery (rendezvous hashing picks
// the routing owner), and losing one replica raises no Removed event — the
// node-loss masking at the heart of federation. A known node announcing
// from the same address renews its lease; when its announced catalog
// differs from the one it last described (it gained or lost a service), it
// is described again over its open connection. An announcement without a
// catalog renews the lease only.
func (m *Manager) handleAlive(a Announcement) error {
	m.mu.Lock()
	st, known := m.nodes[a.Node]
	if known && st.addr == a.Addr {
		st.deadline = time.Now().Add(m.lease)
		stale := a.Catalog && !sameRefs(st.catalog, a.Services)
		m.mu.Unlock()
		if !stale {
			return nil // lease renewal
		}
		return m.describe(a.Node, st)
	}
	m.mu.Unlock()
	if known {
		m.removeNode(a.Node, "") // node moved address
	}
	client, err := wire.Dial(a.Addr, dialTimeout, m.central)
	if err != nil {
		return err
	}
	now := time.Now()
	st = &nodeState{addr: a.Addr, client: client, deadline: now.Add(m.lease), since: now}
	if err := m.describe(a.Node, st); err != nil {
		_ = client.Close()
		return err
	}
	m.mu.Lock()
	m.nodes[a.Node] = st
	delete(m.downs, a.Node) // a returning node clears its tombstone
	m.mu.Unlock()
	return nil
}

// describe asks a node for its service catalog over its connection and
// reconciles the node's providers in the central registry with it: every
// described service registers (re-registering replaces the node's
// provider), and a service the node no longer describes unregisters.
func (m *Manager) describe(name string, st *nodeState) error {
	node, infos, err := st.client.Describe()
	if err != nil {
		return err
	}
	if node != name {
		return fmt.Errorf("discovery: node %q announced as %q", node, name)
	}
	var refs, catalog []string
	for _, info := range infos {
		catalog = append(catalog, info.Ref)
		if err := m.central.RegisterProvider(name, wire.NewRemote(st.client, info)); err != nil {
			continue // ref collision with a provider-less local service: skip
		}
		refs = append(refs, info.Ref)
	}
	sort.Strings(catalog)
	m.mu.Lock()
	gone := st.refs
	st.refs, st.catalog = refs, catalog
	m.mu.Unlock()
	for _, ref := range gone {
		if !slices.Contains(refs, ref) {
			_ = m.central.UnregisterProvider(name, ref)
		}
	}
	return nil
}

// sameRefs reports whether an announced catalog names exactly the sorted
// references in catalog.
func sameRefs(catalog []string, announced []wire.ServiceInfo) bool {
	if len(catalog) != len(announced) {
		return false
	}
	refs := make([]string, len(announced))
	for i, info := range announced {
		refs[i] = info.Ref
	}
	sort.Strings(refs)
	return slices.Equal(catalog, refs)
}

// removeNode unregisters a node's providers and closes its client. A
// non-empty reason leaves a tombstone for the membership view (sys$peers
// and friends); address moves and manager shutdown pass "".
func (m *Manager) removeNode(name, reason string) {
	m.mu.Lock()
	st, ok := m.nodes[name]
	var refs []string
	if ok {
		delete(m.nodes, name)
		refs = st.refs
		if reason != "" {
			m.downs[name] = &peerDown{addr: st.addr, reason: reason, since: time.Now()}
		}
	}
	m.mu.Unlock()
	if !ok {
		return
	}
	for _, ref := range refs {
		_ = m.central.UnregisterProvider(name, ref)
	}
	_ = st.client.Close()
}

// SweepExpired drops nodes whose lease has lapsed; it returns the names of
// removed nodes. Call it periodically (the PEMS ticker does).
func (m *Manager) SweepExpired(now time.Time) []string {
	if m.lease <= 0 {
		return nil
	}
	m.mu.Lock()
	var expired []string
	for name, st := range m.nodes {
		if now.After(st.deadline) {
			expired = append(expired, name)
		}
	}
	m.mu.Unlock()
	for _, name := range expired {
		// discovery.lease.expired: the signal that a Local ERM died silently.
		m.central.Metrics().Counter("discovery.lease.expired").Inc()
		m.removeNode(name, "lease_expired")
	}
	return expired
}

// Nodes returns the names of currently known nodes.
func (m *Manager) Nodes() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.nodes))
	for name := range m.nodes {
		out = append(out, name)
	}
	return out
}

// Peers snapshots the manager's membership view — alive nodes plus the
// tombstones of departed ones — sorted by node name. It backs the sys$peers
// system relation, serena's .peers command and pemsd's /debug/peers.
func (m *Manager) Peers() []PeerInfo {
	m.mu.Lock()
	out := make([]PeerInfo, 0, len(m.nodes)+len(m.downs))
	for name, st := range m.nodes {
		out = append(out, PeerInfo{
			Node:     name,
			Addr:     st.addr,
			State:    PeerAlive,
			Lease:    m.lease,
			Deadline: st.deadline,
			Services: len(st.refs),
			Since:    st.since,
		})
	}
	for name, d := range m.downs {
		out = append(out, PeerInfo{
			Node:   name,
			Addr:   d.addr,
			State:  PeerDown,
			Lease:  m.lease,
			Reason: d.reason,
			Since:  d.since,
		})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
