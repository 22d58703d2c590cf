// WireBus: the discovery bus over the wire protocol itself.
//
// The InProcBus stands in for SSDP multicast inside one process; a federated
// deployment needs announcements to cross processes. WireBus carries them as
// wire announce frames between pemsd nodes: every node pushes its own
// Alive/Bye to the peers it joined, and relays frames it receives onward, so
// a partially connected join graph still converges to full membership
// (gossip over TCP links instead of multicast).
//
// Relay safety rests on three rules:
//
//   - Per-origin sequence numbers. Every locally originated frame carries a
//     monotonically increasing Seq; receivers drop any frame whose Seq is
//     not newer than the last seen from that origin. Relay loops therefore
//     terminate, whatever the join topology.
//   - Synthesized Byes stay local. When a node's own link to a peer dies it
//     synthesizes a Bye for that peer — delivered ONLY to local subscribers,
//     never relayed and never recorded in the seen table. A link failure is
//     an observation about OUR path to the peer, not a fact about the peer:
//     relaying it could evict a node that other peers still reach, and
//     recording it could mask the partitioned node's next genuine Alive.
package discovery

import (
	"context"
	"sync"
	"time"

	"serena/internal/service"
	"serena/internal/wire"
)

// wireBusPeer is one outbound announce link.
type wireBusPeer struct {
	addr    string
	node    string // learned from the announce response ("" until first contact)
	client  *wire.Client
	down    bool          // last announce failed; synthesized Bye delivered
	backoff time.Duration // current redial backoff (capped)
	nextTry time.Time     // earliest next dial when down
}

// WireBus implements Bus over wire announce frames. Local subscribers (the
// discovery Manager) receive REMOTE-origin announcements; locally announced
// frames go to the joined peers only — a node does not discover itself.
type WireBus struct {
	node  string
	lease time.Duration // drives the heartbeat period (lease/4)

	mu sync.Mutex
	// reg is the engine the bus serves: its links count in reg's metrics
	// (discovery.bus.*, wire.*). SetCatalogFromRegistry installs it.
	reg     *service.Registry
	catalog func() []wire.ServiceInfo
	addr    string // advertised wire address of the local server
	subs    map[int]chan Announcement
	nextS   int
	peers   map[string]*wireBusPeer // by dial address
	seen    map[string]uint64       // per-origin max Seq
	seq     uint64                  // local origin sequence
	stop    chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// WireBusOption configures a WireBus.
type WireBusOption func(*WireBus)

// WithBusLease sets the lease the bus advertises against: the heartbeat
// re-announces the local node every lease/4, so a listening Manager with the
// same lease never expires a live peer (default 30s).
func WithBusLease(d time.Duration) WireBusOption {
	return func(b *WireBus) { b.lease = d }
}

// NewWireBus builds a bus for the named local node.
func NewWireBus(node string, opts ...WireBusOption) *WireBus {
	b := &WireBus{
		node:  node,
		lease: 30 * time.Second,
		reg:   service.NewRegistry(),
		subs:  make(map[int]chan Announcement),
		peers: make(map[string]*wireBusPeer),
		seen:  make(map[string]uint64),
		stop:  make(chan struct{}),
	}
	for _, o := range opts {
		o(b)
	}
	return b
}

// Serve attaches the bus to the local wire server: inbound announce frames
// from peers flow into the bus. Call after the server exists, before or
// after Listen.
func (b *WireBus) Serve(srv *wire.Server) {
	srv.SetAnnounceHandler(b.handleFrames)
}

// SetAdvertiseAddr records the local server's bound address, stamped on
// every self-originated Alive so peers (and peers of peers) can dial back.
func (b *WireBus) SetAdvertiseAddr(addr string) {
	b.mu.Lock()
	b.addr = addr
	b.mu.Unlock()
}

// Join adds outbound announce links to the given peer addresses. Links are
// lazy: dialing happens on the next heartbeat (or AnnounceSelfNow), and a
// failed dial retries with capped backoff.
func (b *WireBus) Join(addrs ...string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, a := range addrs {
		if a == "" || a == b.addr {
			continue
		}
		if _, ok := b.peers[a]; !ok {
			b.peers[a] = &wireBusPeer{addr: a}
		}
	}
}

// Start launches the heartbeat loop: every lease/4 the bus re-announces the
// local node to every joined peer (lease renewal), redials down links with
// capped backoff, and synthesizes a local Bye when a link dies.
func (b *WireBus) Start() {
	interval := b.lease / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	b.mu.Lock()
	stop := b.stop
	b.mu.Unlock()
	if stop == nil {
		return // already stopped
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				b.AnnounceSelfNow()
			}
		}
	}()
}

// Stop halts the heartbeat and closes every peer link. It does NOT announce
// a Bye — callers that shut down gracefully announce one first (pemsd's
// SIGTERM drain does).
func (b *WireBus) Stop() {
	b.mu.Lock()
	b.stopped = true
	if b.stop != nil {
		close(b.stop)
		b.stop = nil
	}
	peers := make([]*wireBusPeer, 0, len(b.peers))
	for _, p := range b.peers {
		peers = append(peers, p)
	}
	b.mu.Unlock()
	b.wg.Wait()
	for _, p := range peers {
		if p.client != nil {
			_ = p.client.Close()
		}
	}
}

// Subscribe implements Bus.
func (b *WireBus) Subscribe() (<-chan Announcement, func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.nextS
	b.nextS++
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

// Announce implements Bus: a locally originated announcement is stamped
// with the next origin sequence and pushed to every joined peer. It is NOT
// delivered to local subscribers — a node does not discover itself.
func (b *WireBus) Announce(a Announcement) {
	b.broadcast(b.stamp(a))
}

// AnnounceSelfNow sends one Alive heartbeat for the local node immediately
// (the heartbeat loop calls it on every tick; pemsd calls it once at
// startup so peers learn the node without waiting a quarter-lease).
func (b *WireBus) AnnounceSelfNow() {
	b.mu.Lock()
	addr := b.addr
	catalog := b.catalog
	b.mu.Unlock()
	if addr == "" {
		return
	}
	a := Announcement{Kind: Alive, Node: b.node, Addr: addr}
	if catalog != nil {
		a.Services, a.Catalog = catalog(), true
	}
	b.Announce(a)
}

// SetCatalogFromRegistry installs a catalog that advertises the registry's
// locally hosted services (see hostedCatalog), and makes the bus count its
// frames and links in the registry's metrics.
func (b *WireBus) SetCatalogFromRegistry(reg *service.Registry) {
	b.mu.Lock()
	b.reg = reg
	b.catalog = func() []wire.ServiceInfo { return hostedCatalog(reg) }
	b.mu.Unlock()
}

// count adds one to the named counter of the bus's registry.
func (b *WireBus) count(name string) {
	b.mu.Lock()
	reg := b.reg
	b.mu.Unlock()
	reg.Metrics().Counter(name).Inc()
}

// stamp converts a local Announcement into a wire frame with a fresh
// origin sequence.
func (b *WireBus) stamp(a Announcement) wire.Announce {
	kind := wire.AnnounceAlive
	if a.Kind == Bye {
		kind = wire.AnnounceBye
	}
	b.mu.Lock()
	b.seq++
	seq := b.seq
	b.mu.Unlock()
	return wire.Announce{Kind: kind, Node: a.Node, Addr: a.Addr, Seq: seq, From: b.node, Services: a.Services, Catalog: a.Catalog}
}

// broadcast pushes one frame to every joined peer, excluding the frame's
// origin and the peer it arrived from. Dead links get a capped-backoff
// redial schedule and a local synthesized Bye on the up→down transition.
func (b *WireBus) broadcast(frame wire.Announce) {
	exclude := map[string]bool{frame.Node: true}
	if frame.From != "" {
		exclude[frame.From] = true
	}
	b.mu.Lock()
	targets := make([]*wireBusPeer, 0, len(b.peers))
	for _, p := range b.peers {
		if exclude[p.node] {
			continue
		}
		targets = append(targets, p)
	}
	b.mu.Unlock()
	out := frame
	out.From = b.node
	for _, p := range targets {
		b.sendTo(p, out)
	}
}

// sendTo delivers one frame over a peer link, handling (re)dial, backoff
// and down-transition Byes. Peer fields are guarded by b.mu; the network
// calls run unlocked.
func (b *WireBus) sendTo(p *wireBusPeer, frame wire.Announce) {
	b.mu.Lock()
	if p.down && time.Now().Before(p.nextTry) {
		b.mu.Unlock()
		return // still backing off
	}
	client, reg := p.client, b.reg
	b.mu.Unlock()

	if client == nil {
		c, err := wire.Dial(p.addr, dialTimeout, reg)
		if err != nil {
			b.linkFailed(p)
			return
		}
		b.mu.Lock()
		if p.client == nil {
			p.client = c
			client = c
		} else {
			client = p.client
		}
		b.mu.Unlock()
		if client != c {
			_ = c.Close()
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	peerNode, err := client.Announce(ctx, []wire.Announce{frame})
	cancel()
	if err != nil {
		b.linkFailed(p)
		return
	}
	b.count("discovery.bus.frames_sent")
	b.mu.Lock()
	p.node = peerNode
	p.down = false
	p.backoff = 0
	b.mu.Unlock()
}

// linkFailed marks a peer link down, schedules a capped-backoff redial and
// — on the up→down transition, for peers whose node name we learned —
// synthesizes a LOCAL-ONLY Bye so the Manager masks the peer without
// waiting out the lease. The Bye is neither relayed nor entered in the seen
// table (see the package comment).
func (b *WireBus) linkFailed(p *wireBusPeer) {
	b.mu.Lock()
	if p.client != nil {
		_ = p.client.Close()
		p.client = nil
	}
	wasDown := p.down
	p.down = true
	if p.backoff == 0 {
		p.backoff = b.lease / 4
		if p.backoff < time.Millisecond {
			p.backoff = time.Millisecond
		}
	} else {
		p.backoff *= 2
		if limit := 4 * b.lease; p.backoff > limit {
			p.backoff = limit
		}
	}
	p.nextTry = time.Now().Add(p.backoff)
	node, addr := p.node, p.addr
	b.mu.Unlock()
	if wasDown || node == "" {
		return
	}
	b.count("discovery.bus.synthesized_byes")
	b.deliverLocal(Announcement{Kind: Bye, Node: node, Addr: addr})
}

// handleFrames is the wire server's announce callback: dedup by per-origin
// sequence, deliver locally, learn new peers, relay onward.
func (b *WireBus) handleFrames(frames []wire.Announce) {
	for _, f := range frames {
		if f.Node == b.node {
			continue // our own announcement echoed back
		}
		b.count("discovery.bus.frames_received")
		b.mu.Lock()
		if f.Seq <= b.seen[f.Node] {
			b.mu.Unlock()
			b.count("discovery.bus.frames_deduped")
			continue
		}
		b.seen[f.Node] = f.Seq
		b.mu.Unlock()

		kind := Alive
		if f.Kind == wire.AnnounceBye {
			kind = Bye
		}
		b.deliverLocal(Announcement{Kind: kind, Node: f.Node, Addr: f.Addr, Services: f.Services, Catalog: f.Catalog})

		// Mesh convergence: an Alive from a node we have no link to adds
		// one, so announcements (and failover traffic) need not funnel
		// through the node that introduced us.
		if kind == Alive && f.Addr != "" {
			b.Join(f.Addr)
		}

		// Relay in the background; the seq table bounds the flood.
		b.mu.Lock()
		running := !b.stopped
		if running {
			b.wg.Add(1)
		}
		b.mu.Unlock()
		if !running {
			continue
		}
		b.count("discovery.bus.frames_relayed")
		relay := f
		go func() {
			defer b.wg.Done()
			b.broadcast(relay)
		}()
	}
}

// deliverLocal fans an announcement out to local subscribers (best-effort,
// like multicast: slow subscribers drop).
func (b *WireBus) deliverLocal(a Announcement) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ch := range b.subs {
		select {
		case ch <- a:
		default:
		}
	}
}
