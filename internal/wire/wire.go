// Package wire implements the network layer of the PEMS Environment
// Resource Manager (Gripay et al., EDBT 2010, Figure 1): a TCP protocol for
// remote service invocation and node description, replacing the paper's
// UPnP stack. A Local Environment Resource Manager exposes its registered
// services through a wire.Server; the core ERM reaches them through
// wire.Client proxies that satisfy service.Service, making remote services
// indistinguishable from local ones to the algebra.
//
// Framing: a version preamble exchanged once per connection, then
// gob-encoded, ID-tagged request/response messages over a persistent
// connection with full multiplexing — many invocations may be in flight
// concurrently on one connection (the server handles each request in its
// own goroutine), which the parallel invocation operator exploits. Tuples
// and result rows travel as bytes in the value package's binary codec, the
// same encoding the WAL writes to disk.
package wire

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"serena/internal/obs"
	"serena/internal/resilience"
	"serena/internal/service"
	"serena/internal/trace"
	"serena/internal/value"
)

// Version is the wire protocol version. Both ends of a new connection
// write a fixed preamble — magic, then this version — before any gob frame,
// and each drops a peer whose preamble differs. The version is checked once
// per connection; nothing in the frames themselves is versioned.
const Version = 5

// preamble opens every connection, in both directions.
var preamble = [8]byte{'S', 'R', 'N', 'W', 'I', 'R', 'E', Version}

// ErrVersionMismatch reports a peer whose connection preamble is not this
// build's: another protocol version, or not a wire peer at all.
var ErrVersionMismatch = errors.New("wire: protocol version mismatch")

// handshake writes this end's preamble and checks the peer's, with the
// whole exchange bounded by d (0 = unbounded).
func handshake(conn net.Conn, d time.Duration) error {
	if d > 0 {
		_ = conn.SetDeadline(time.Now().Add(d))
		defer conn.SetDeadline(time.Time{})
	}
	if _, err := conn.Write(preamble[:]); err != nil {
		return err
	}
	var got [len(preamble)]byte
	if _, err := io.ReadFull(conn, got[:]); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if got != preamble {
		return fmt.Errorf("%w: peer sent preamble %q, want %q", ErrVersionMismatch, got[:], preamble[:])
	}
	return nil
}

// clientObs is a client's metrics: round-trip latency and outcome
// counters, connection churn (dials cover both the first connect and every
// redial), and batch frames sent with the invocations they carried.
type clientObs struct {
	latency                            *obs.Histogram
	retries, failures, timeouts, dials *obs.Counter
	connLost, batchCalls, batchItems   *obs.Counter
}

func newClientObs(m *obs.Metrics) clientObs {
	return clientObs{
		latency:    m.Histogram("wire.roundtrip.latency"),
		retries:    m.Counter("wire.roundtrip.retries"),
		failures:   m.Counter("wire.roundtrip.failures"),
		timeouts:   m.Counter("wire.roundtrip.timeouts"),
		dials:      m.Counter("wire.dials"),
		connLost:   m.Counter("wire.connections_lost"),
		batchCalls: m.Counter("wire.batch.calls"),
		batchItems: m.Counter("wire.batch.items"),
	}
}

// Request is the union of client→server messages.
type Request struct {
	// ID correlates the response on a multiplexed connection.
	ID uint64
	// Op is "invoke", "batch", "describe" or "announce".
	Op string
	// Invoke fields; Input is a value.EncodeTuple buffer.
	Proto string
	Ref   string
	Input []byte
	At    int64
	// Trace context: the client's trace and β span IDs, letting the server
	// record its execution as a child span of the same trace. 0 means the
	// invocation is not traced.
	TraceID uint64
	SpanID  uint64
	// Items carries a batch of invocations (Op "batch"); the per-request
	// Proto/Ref/Input fields are unused for that op.
	Items []BatchItem
	// Announces carries discovery presence frames (Op "announce").
	Announces []Announce
}

// Announce kinds, mirroring discovery's Alive/Bye (wire cannot import the
// discovery package — it sits below it).
const (
	AnnounceAlive uint8 = iota
	AnnounceBye
)

// Announce is one discovery presence frame relayed between pemsd nodes
// (Op "announce"): a node is alive at an address hosting the listed
// services, or says goodbye. Origin+Seq implement relay loop suppression —
// Seq increases monotonically per origin, so a receiver drops any frame at
// or below the last sequence it saw from that origin. From names the
// immediate sender (≠ Origin on relayed frames), letting a relaying node
// skip echoing a frame straight back to whoever sent it. Catalog marks
// Services as the origin's whole catalog: gob sends no empty slice, so an
// empty catalog and an absent one arrive alike without it.
type Announce struct {
	Kind     uint8
	Node     string // the node this frame is about (the origin)
	Addr     string // its wire address
	Seq      uint64 // per-origin monotonic sequence number
	From     string // immediate sender of this frame
	Services []ServiceInfo
	Catalog  bool
}

// BatchItem is one invocation within a batch frame. Carrying proto and ref
// per item keeps the frame general (a future planner may mix refs), though
// the β dispatcher groups by (proto, ref) before dispatch.
type BatchItem struct {
	Proto string
	Ref   string
	Input []byte // value.EncodeTuple
	At    int64
}

// BatchItemResult is one item's outcome within a batch response: results
// are positional (Items[i] → ItemResults[i]) and per item, so one bad tuple
// does not fail the frame.
type BatchItemResult struct {
	Err  string
	Rows []byte // value.EncodeRows
}

// ServiceInfo describes one hosted service.
type ServiceInfo struct {
	Ref        string
	Prototypes []string
}

// Response is the union of server→client messages.
type Response struct {
	ID          uint64
	Err         string
	Rows        []byte            // invoke: value.EncodeRows
	Node        string            // describe, announce
	Services    []ServiceInfo     // describe
	ItemResults []BatchItemResult // batch
}

// Server exposes a Local ERM's services over TCP.
type Server struct {
	node string
	reg  *service.Registry

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]bool
	done  chan struct{}

	// opts holds the overload limits (see overload.go), fixed at
	// construction; inFlight counts requests executing against MaxInFlight.
	opts     ServerOptions
	inFlight atomic.Int64

	// announceHandler receives incoming announce frames (the WireBus
	// attaches itself here). Without one, announce frames are answered with
	// an error.
	announceHandler atomic.Pointer[func([]Announce)]

	// overloaded counts MaxInFlight rejections in reg's metrics.
	overloaded *obs.Counter
}

// NewServer wraps a registry of local services under a node name; the
// server's spans and metrics record into the registry's. A ServerOptions
// value, if given, sets the server's overload limits; without one the
// server has none.
func NewServer(node string, reg *service.Registry, opts ...ServerOptions) *Server {
	s := &Server{node: node, reg: reg, conns: make(map[net.Conn]bool), done: make(chan struct{}),
		overloaded: reg.Metrics().Counter("wire.server.overload_rejections")}
	if len(opts) > 0 {
		s.opts = opts[0]
	}
	return s
}

// SetAnnounceHandler installs the receiver for incoming announce frames
// (nil uninstalls it, making the server answer them with an error). The
// handler runs on the per-request goroutine and must not block
// indefinitely.
func (s *Server) SetAnnounceHandler(h func([]Announce)) {
	if h == nil {
		s.announceHandler.Store(nil)
		return
	}
	s.announceHandler.Store(&h)
}

// Listen starts serving on the given address ("127.0.0.1:0" for an
// ephemeral port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: %s: %w", s.node, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Close stops the server and drops all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		return nil
	default:
		close(s.done)
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	return err
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		select {
		case <-s.done:
			s.mu.Unlock()
			_ = conn.Close()
			return
		default:
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	var wg sync.WaitGroup
	defer func() {
		wg.Wait()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	readT, writeT, maxIF := s.opts.ReadTimeout, s.opts.WriteTimeout, s.opts.MaxInFlight
	if handshake(conn, readT) != nil {
		return // another version, or not a wire peer: no request is read
	}
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var writeMu sync.Mutex
	send := func(resp *Response) {
		writeMu.Lock()
		defer writeMu.Unlock()
		if writeT > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(writeT))
		}
		_ = enc.Encode(resp)
	}
	for {
		if readT > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(readT))
		} else {
			_ = conn.SetReadDeadline(time.Time{})
		}
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		// Admission check before any work: over the cap, the request is
		// answered with a fast typed rejection — no registry call, no
		// goroutine, and the client's degradation policy takes it from
		// there.
		if maxIF > 0 && s.inFlight.Add(1) > int64(maxIF) {
			s.inFlight.Add(-1)
			s.overloaded.Inc()
			send(&Response{
				ID:  req.ID,
				Err: fmt.Sprintf("wire: %s: %v: %d requests in flight", s.node, resilience.ErrOverloaded, maxIF),
			})
			continue
		}
		wg.Add(1)
		go func(req Request, counted bool) {
			defer wg.Done()
			resp := s.handle(&req)
			if counted {
				// Free the slot before answering: a caller that has its
				// response must find the capacity released.
				s.inFlight.Add(-1)
			}
			resp.ID = req.ID
			send(resp)
		}(req, maxIF > 0)
	}
}

func (s *Server) handle(req *Request) *Response {
	switch req.Op {
	case "describe":
		// Only locally hosted services are exported: provider-backed entries
		// were discovered from OTHER nodes, and re-exporting them would let
		// membership gossip turn every node into a claimed provider of
		// everything (invocation forwarding chains, ambiguous ownership).
		resp := &Response{Node: s.node}
		for _, ref := range s.reg.LocalRefs() {
			svc, err := s.reg.Lookup(ref)
			if err != nil {
				continue
			}
			resp.Services = append(resp.Services, ServiceInfo{Ref: ref, Prototypes: svc.PrototypeNames()})
		}
		return resp

	case "invoke":
		input, err := value.DecodeTuple(req.Input)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		// Resume the client's trace (nil when the invocation is
		// unsampled): the server-side execution records as a child of the
		// client's round-trip span.
		span := s.reg.Tracer().StartRemote("wire.server", req.TraceID, req.SpanID)
		span.SetAttr("node", s.node)
		span.SetAttr("proto", req.Proto)
		span.SetAttr("ref", req.Ref)
		rows, err := s.reg.InvokeCtx(trace.ContextWith(context.Background(), span), req.Proto, req.Ref, input, service.Instant(req.At))
		if err != nil {
			span.SetAttr("error", err.Error())
			span.Finish()
			return &Response{Err: err.Error()}
		}
		span.SetAttrInt("rows", int64(len(rows)))
		span.Finish()
		return &Response{Rows: value.EncodeRows(rows)}

	case "batch":
		return s.handleBatch(req)

	case "announce":
		h := s.announceHandler.Load()
		if h == nil {
			return &Response{Err: fmt.Sprintf("wire: %s: no discovery bus attached", s.node)}
		}
		(*h)(req.Announces)
		// The response names this node so the announcing dialer learns the
		// addr → node mapping without a separate describe round trip.
		return &Response{Node: s.node}
	}
	return &Response{Err: fmt.Sprintf("wire: unknown op %q", req.Op)}
}

// handleBatch executes a batch frame: every item independently, each on
// its own goroutine as separate requests are, with per-item errors so one
// bad tuple cannot fail its neighbours. Results are positional. The frame
// counts as one request against ServerOptions.MaxInFlight, and the
// client's β dispatcher bounds its items.
func (s *Server) handleBatch(req *Request) *Response {
	span := s.reg.Tracer().StartRemote("wire.server.batch", req.TraceID, req.SpanID)
	span.SetAttr("node", s.node)
	span.SetAttrInt("items", int64(len(req.Items)))
	defer span.Finish()
	ctx := trace.ContextWith(context.Background(), span)
	results := make([]BatchItemResult, len(req.Items))
	var wg sync.WaitGroup
	for i := range req.Items {
		wg.Add(1)
		go func(item *BatchItem, res *BatchItemResult) {
			defer wg.Done()
			input, err := value.DecodeTuple(item.Input)
			if err != nil {
				res.Err = err.Error()
				return
			}
			rows, err := s.reg.InvokeCtx(ctx, item.Proto, item.Ref, input, service.Instant(item.At))
			if err != nil {
				res.Err = err.Error()
				return
			}
			res.Rows = value.EncodeRows(rows)
		}(&req.Items[i], &results[i])
	}
	wg.Wait()
	return &Response{ItemResults: results}
}

// Client is a multiplexed connection to a Local ERM node: any number of
// requests may be in flight concurrently; responses are matched by ID.
//
// The connection self-heals: when a round trip finds the connection lost
// (dial failure, write failure, or the read loop dying mid-request), the
// client redials with capped exponential backoff and retries, up to
// reconnectAttempts attempts. A request that TIMED OUT is never retried —
// it may have reached the server, and replaying it could duplicate an
// active invocation's side effect.
type Client struct {
	addr    string
	timeout time.Duration
	tracer  *trace.Tracer
	m       clientObs

	mu     sync.Mutex // guards cur/nextID and writes
	cur    *clientConn
	nextID uint64
	closed bool
}

// clientConn is one physical connection's state. Keeping the pending map
// per connection means a dying read loop fails exactly ITS in-flight
// requests — never the replacement connection's — and a reconnect can
// never orphan a waiter.
type clientConn struct {
	conn    net.Conn
	enc     *gob.Encoder
	pending map[uint64]chan *Response
}

// Dial connects to a node. The timeout bounds the dial and version
// handshake, every write, and each round trip's wait for a response. A node
// speaking another protocol version fails with ErrVersionMismatch. A
// registry, if given, is the engine the client serves: its round trips
// count in that registry's metrics; without one they count in a registry
// of the client's own.
func Dial(addr string, timeout time.Duration, reg ...*service.Registry) (*Client, error) {
	if len(reg) == 0 {
		reg = []*service.Registry{service.NewRegistry()}
	}
	c := &Client{addr: addr, timeout: timeout, tracer: reg[0].Tracer(), m: newClientObs(reg[0].Metrics())}
	c.mu.Lock()
	err := c.connectLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// connectLocked (re)establishes the connection, checks the peer's protocol
// version, and starts the read loop.
func (c *Client) connectLocked() error {
	c.m.dials.Inc()
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err == nil {
		if err = handshake(conn, c.timeout); err != nil {
			_ = conn.Close()
		}
	}
	if err != nil {
		// ErrUnreachable: the request (if any) never left this process, so
		// even an active invocation may safely fail over to a replica.
		return fmt.Errorf("wire: dial %s: %w: %w", c.addr, resilience.ErrUnreachable, err)
	}
	cc := &clientConn{conn: conn, enc: gob.NewEncoder(conn), pending: make(map[uint64]chan *Response)}
	c.cur = cc
	go c.readLoop(cc, gob.NewDecoder(conn))
	return nil
}

// readLoop routes responses to their waiters until the connection dies,
// then fails fast everything still pending ON THIS connection.
func (c *Client) readLoop(cc *clientConn, dec *gob.Decoder) {
	for {
		var resp Response
		if err := dec.Decode(&resp); err != nil {
			c.mu.Lock()
			if c.cur == cc {
				c.cur = nil
			}
			for id, ch := range cc.pending {
				close(ch)
				delete(cc.pending, id)
			}
			c.mu.Unlock()
			_ = cc.conn.Close()
			return
		}
		c.mu.Lock()
		ch, ok := cc.pending[resp.ID]
		if ok {
			delete(cc.pending, resp.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- &resp
		}
	}
}

// Close drops the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.cur != nil {
		err := c.cur.conn.Close()
		c.cur = nil
		return err
	}
	return nil
}

// call is roundTripCtx with a remote error folded into the error result.
func (c *Client) call(ctx context.Context, req *Request) (*Response, error) {
	resp, err := c.roundTripCtx(ctx, req)
	if err == nil && resp.Err != "" {
		return nil, remoteError(resp.Err)
	}
	return resp, err
}

// roundTripCtx drives one request to completion under the reconnection
// policy: connection-level failures (dial, write, read loop death) redial
// with capped exponential backoff and retry; a timed-out or cancelled
// request is NOT retried, because it may already have reached the server.
func (c *Client) roundTripCtx(ctx context.Context, req *Request) (*Response, error) {
	// A sampled invocation gets a round-trip child span and exports its
	// trace context in the frame, so the server side can resume the trace.
	var span *trace.Span
	if c.tracer.Active() {
		if parent := trace.FromContext(ctx); parent != nil {
			span = parent.Child("wire.roundtrip")
			span.SetAttr("addr", c.addr)
			req.TraceID = span.Trace()
			req.SpanID = span.ID()
		}
	}
	start := time.Now()
	resp, err := c.doRoundTripCtx(ctx, req)
	c.m.latency.Observe(time.Since(start))
	if err != nil {
		c.m.failures.Inc()
		span.SetAttr("error", err.Error())
	}
	span.Finish()
	return resp, err
}

// The round-trip reconnection policy: total attempts per round trip and
// the capped exponential backoff between them.
const (
	reconnectAttempts = 3
	reconnectBase     = 5 * time.Millisecond
	reconnectMax      = 250 * time.Millisecond
)

func (c *Client) doRoundTripCtx(ctx context.Context, req *Request) (*Response, error) {
	backoff := reconnectBase
	var lastErr error
	for attempt := 0; attempt < reconnectAttempts; attempt++ {
		if attempt > 0 {
			if err := resilience.SleepCtx(ctx, backoff); err != nil {
				return nil, fmt.Errorf("wire: %s: %w", c.addr, err)
			}
			backoff = min(2*backoff, reconnectMax)
			c.m.retries.Inc()
		}
		resp, err, retryable := c.tryRoundTrip(ctx, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !retryable {
			return nil, err
		}
	}
	return nil, lastErr
}

// tryRoundTrip performs a single send/receive attempt. retryable reports
// whether the failure is connection-level (safe to redial and resend: the
// request never reached the server, or the connection died before any
// response could have been routed to us).
func (c *Client) tryRoundTrip(ctx context.Context, req *Request) (resp *Response, err error, retryable bool) {
	c.mu.Lock()
	if c.closed {
		// A deliberately closed client (the discovery manager processed a
		// Bye for this node) never sends: unreachable, so callers racing
		// the close — a batch frame in flight during the Bye — fail over
		// to a surviving replica instead of surfacing a terminal error.
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: %s: %w: client closed", c.addr, resilience.ErrUnreachable), false
	}
	if c.cur == nil {
		if err := c.connectLocked(); err != nil {
			c.mu.Unlock()
			return nil, err, true
		}
	}
	cc := c.cur
	c.nextID++
	req.ID = c.nextID
	ch := make(chan *Response, 1)
	cc.pending[req.ID] = ch
	if c.timeout > 0 {
		_ = cc.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	err = cc.enc.Encode(req)
	if c.timeout > 0 {
		_ = cc.conn.SetWriteDeadline(time.Time{})
	}
	if err != nil {
		// A failed write poisons the gob stream: drop the connection and
		// fail fast every request still in flight on it. The incomplete
		// frame can never decode server-side, so the request did not
		// execute — unreachable, not unknown.
		if c.cur == cc {
			c.cur = nil
		}
		for id, pch := range cc.pending {
			close(pch)
			delete(cc.pending, id)
		}
		_ = cc.conn.Close()
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: %s: %w: %w", c.addr, resilience.ErrUnreachable, err), true
	}
	c.mu.Unlock()

	var timeout <-chan time.Time
	if c.timeout > 0 {
		timer := time.NewTimer(c.timeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			// The connection died before our response was routed back: the
			// reply can never arrive. The request WAS sent, so the server
			// may have executed it — ErrOutcomeUnknown. For passive calls
			// redialing and resending is safe and the only way forward; a
			// no-resend context (active invocations) must instead surface
			// the unknown outcome so the query layer can pin the action
			// rather than risk firing its side effect twice.
			c.m.connLost.Inc()
			if resilience.NoResend(ctx) {
				return nil, fmt.Errorf("wire: %s: connection lost: %w", c.addr, resilience.ErrOutcomeUnknown), false
			}
			return nil, fmt.Errorf("wire: %s: connection lost: %w", c.addr, resilience.ErrOutcomeUnknown), true
		}
		return resp, nil, false
	case <-timeout:
		c.m.timeouts.Inc()
		c.mu.Lock()
		delete(cc.pending, req.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: %s: request timed out after %s: %w", c.addr, c.timeout, resilience.ErrOutcomeUnknown), false
	case <-ctx.Done():
		c.mu.Lock()
		delete(cc.pending, req.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: %s: %w: %w", c.addr, resilience.ErrOutcomeUnknown, ctx.Err()), false
	}
}

// Describe queries the node's name and hosted services.
func (c *Client) Describe() (string, []ServiceInfo, error) {
	resp, err := c.call(context.Background(), &Request{Op: "describe"})
	if err != nil {
		return "", nil, err
	}
	return resp.Node, resp.Services, nil
}

// Announce ships discovery presence frames to the peer and returns the
// peer's node name, so the dialing side of a federation link learns the
// addr → node mapping for free.
func (c *Client) Announce(ctx context.Context, anns []Announce) (string, error) {
	resp, err := c.call(ctx, &Request{Op: "announce", Announces: anns})
	if err != nil {
		return "", err
	}
	return resp.Node, nil
}

// Invoke performs a remote invocation.
func (c *Client) Invoke(proto, ref string, input value.Tuple, at service.Instant) ([]value.Tuple, error) {
	return c.InvokeCtx(context.Background(), proto, ref, input, at)
}

// InvokeCtx performs a remote invocation bounded by the context: the
// deadline caps the whole round trip, including reconnection backoff.
func (c *Client) InvokeCtx(ctx context.Context, proto, ref string, input value.Tuple, at service.Instant) ([]value.Tuple, error) {
	resp, err := c.call(ctx, &Request{
		Op: "invoke", Proto: proto, Ref: ref, Input: value.EncodeTuple(input), At: int64(at),
	})
	if err != nil {
		return nil, err
	}
	return value.DecodeRows(resp.Rows)
}

// InvokeBatchCtx performs many invocations of one (proto, ref) pair in a
// single round trip (a batch frame). Results are positional and per-item;
// a failure of the frame itself fails every item.
func (c *Client) InvokeBatchCtx(ctx context.Context, proto, ref string, inputs []value.Tuple, at service.Instant) []service.InvokeResult {
	out := make([]service.InvokeResult, len(inputs))
	if len(inputs) == 0 {
		return out
	}
	c.m.batchCalls.Inc()
	c.m.batchItems.Add(int64(len(inputs)))
	items := make([]BatchItem, len(inputs))
	for i, in := range inputs {
		items[i] = BatchItem{Proto: proto, Ref: ref, Input: value.EncodeTuple(in), At: int64(at)}
	}
	resp, err := c.call(ctx, &Request{Op: "batch", Items: items})
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	for i := range out {
		switch {
		case i >= len(resp.ItemResults):
			out[i].Err = fmt.Errorf("wire: %s: batch response carried %d of %d results", c.addr, len(resp.ItemResults), len(inputs))
		case resp.ItemResults[i].Err != "":
			out[i].Err = remoteError(resp.ItemResults[i].Err)
		default:
			out[i].Rows, out[i].Err = value.DecodeRows(resp.ItemResults[i].Rows)
		}
	}
	return out
}

// Remote wraps one remote service behind a client connection so it
// satisfies service.Service — the core ERM registers these proxies, making
// remote invocation transparent to queries (Section 5.1).
type Remote struct {
	client *Client
	ref    string
	protos map[string]bool
	names  []string
}

// NewRemote builds a proxy for the described service.
func NewRemote(client *Client, info ServiceInfo) *Remote {
	protos := make(map[string]bool, len(info.Prototypes))
	for _, p := range info.Prototypes {
		protos[p] = true
	}
	return &Remote{client: client, ref: info.Ref, protos: protos, names: append([]string(nil), info.Prototypes...)}
}

// Ref implements service.Service.
func (r *Remote) Ref() string { return r.ref }

// PrototypeNames implements service.Service.
func (r *Remote) PrototypeNames() []string { return r.names }

// Implements implements service.Service.
func (r *Remote) Implements(p string) bool { return r.protos[p] }

// Invoke implements service.Service by a wire round trip: the registry's
// per-invocation deadline propagates into the round trip.
func (r *Remote) Invoke(ctx context.Context, proto string, input value.Tuple, at service.Instant) ([]value.Tuple, error) {
	return r.client.InvokeCtx(ctx, proto, r.ref, input, at)
}

// InvokeBatch implements service.Batcher: the registry hands a whole
// (proto, ref) group to the proxy, which ships it as one batch frame.
func (r *Remote) InvokeBatch(ctx context.Context, proto string, inputs []value.Tuple, at service.Instant) []service.InvokeResult {
	return r.client.InvokeBatchCtx(ctx, proto, r.ref, inputs, at)
}
