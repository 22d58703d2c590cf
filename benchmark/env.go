package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"serena/internal/discovery"
	"serena/internal/pems"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
)

// The four prototypes of the paper's Table 1.
const (
	protoGetTemperature = iota
	protoCheckPhoto
	protoTakePhoto
	protoSendMessage
	numProtos
)

func prototypes() []*schema.Prototype {
	attr := func(name string, k value.Kind) schema.Attribute { return schema.Attribute{Name: name, Type: k} }
	return []*schema.Prototype{
		schema.MustPrototype("getTemperature", nil,
			schema.MustRel(attr("temperature", value.Real)), false),
		schema.MustPrototype("checkPhoto",
			schema.MustRel(attr("area", value.String)),
			schema.MustRel(attr("quality", value.Int), attr("delay", value.Real)), false),
		schema.MustPrototype("takePhoto",
			schema.MustRel(attr("area", value.String), attr("quality", value.Int)),
			schema.MustRel(attr("photo", value.Blob)), false),
		schema.MustPrototype("sendMessage",
			schema.MustRel(attr("address", value.String), attr("text", value.String)),
			schema.MustRel(attr("sent", value.Bool)), true),
	}
}

func registerPrototypes(reg *service.Registry) error {
	for _, p := range prototypes() {
		if err := reg.RegisterPrototype(p); err != nil {
			return err
		}
	}
	return nil
}

// delivery is one sendMessage call as the messenger stub saw it.
type delivery struct {
	addr string
	at   int
}

// stubs are the benchmark's own services. Their answers depend only on
// (seed, reference, instant); they count every physical call, log every
// message delivery, and — while the current op is traced — estimate the
// time spent inside them by timing one call in stubTimingSample (timing
// each of a one-shot query's 2 048 calls would cost more than the calls).
type stubs struct {
	seed   uint64
	timing atomic.Bool
	busyNS atomic.Int64
	calls  [numProtos]atomic.Int64

	mu         sync.Mutex
	deliveries []delivery
}

const stubTimingSample = 8

func (s *stubs) wrap(proto int, fn service.InvokeFunc) service.InvokeFunc {
	return func(in value.Tuple, at service.Instant) ([]value.Tuple, error) {
		if n := s.calls[proto].Add(1); n%stubTimingSample != 0 || !s.timing.Load() {
			return fn(in, at)
		}
		start := time.Now()
		rows, err := fn(in, at)
		s.busyNS.Add(stubTimingSample * int64(time.Since(start)))
		return rows, err
	}
}

func (s *stubs) totalCalls() int64 {
	var n int64
	for i := range s.calls {
		n += s.calls[i].Load()
	}
	return n
}

func (s *stubs) deliveryLog() []delivery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]delivery(nil), s.deliveries...)
}

func (s *stubs) sensor(i int) service.Service {
	return service.NewFunc(sensorRef(i), map[string]service.InvokeFunc{
		"getTemperature": s.wrap(protoGetTemperature, func(_ value.Tuple, at service.Instant) ([]value.Tuple, error) {
			return []value.Tuple{{value.NewReal(quantTemp(polledTemp(s.seed, i, int(at))))}}, nil
		}),
	})
}

func (s *stubs) camera(l int) service.Service {
	return service.NewFunc(cameraRef(l), map[string]service.InvokeFunc{
		"checkPhoto": s.wrap(protoCheckPhoto, func(value.Tuple, service.Instant) ([]value.Tuple, error) {
			return []value.Tuple{{value.NewInt(cameraQuality(l)), value.NewReal(0.25)}}, nil
		}),
		"takePhoto": s.wrap(protoTakePhoto, func(_ value.Tuple, at service.Instant) ([]value.Tuple, error) {
			return []value.Tuple{{value.NewBlob(photoBlob(s.seed, l, int(at)))}}, nil
		}),
	})
}

func (s *stubs) messenger(i int) service.Service {
	return service.NewFunc(messengerRef(i), map[string]service.InvokeFunc{
		"sendMessage": s.wrap(protoSendMessage, func(in value.Tuple, at service.Instant) ([]value.Tuple, error) {
			s.mu.Lock()
			s.deliveries = append(s.deliveries, delivery{addr: in[0].Str(), at: int(at)})
			s.mu.Unlock()
			return []value.Tuple{{value.NewBool(true)}}, nil
		}),
	})
}

func (s *stubs) services(sensors, cameras, messengers int) []service.Service {
	var out []service.Service
	for i := 0; i < sensors; i++ {
		out = append(out, s.sensor(i))
	}
	for l := 0; l < cameras; l++ {
		out = append(out, s.camera(l))
	}
	for i := 0; i < messengers; i++ {
		out = append(out, s.messenger(i))
	}
	return out
}

// edgeNode is the in-process Local ERM of the remote workloads: a
// discovery.Node serving the stubs on loopback TCP, reached by the core
// through one wire connection.
type edgeNode struct {
	bus  *discovery.InProcBus
	node *discovery.Node
	refs int
}

func startEdge(svcs []service.Service) (*edgeNode, error) {
	e := &edgeNode{bus: discovery.NewInProcBus(), refs: len(svcs)}
	e.node = discovery.NewNode("edge", e.bus)
	if err := registerPrototypes(e.node.Registry()); err != nil {
		return nil, err
	}
	for _, s := range svcs {
		if err := e.node.Registry().Register(s); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// newCore builds a core PEMS listening on the edge's bus. Leases are off:
// a run is shorter than any sensible lease and expiry is not under test.
func (e *edgeNode) newCore() *pems.PEMS {
	return pems.New(pems.WithDiscovery(e.bus, discovery.WithLease(0)))
}

// converge announces the node (starting it the first time) and waits
// until every one of its services is visible in the core's registry.
func (e *edgeNode) converge(p *pems.PEMS) (elapsed time.Duration, polls int, err error) {
	start := time.Now()
	if e.node.Addr() == "" {
		if err := e.node.Start("127.0.0.1:0"); err != nil {
			return 0, 0, err
		}
	} else {
		e.node.Announce()
	}
	for len(p.Registry().Refs()) < e.refs {
		polls++
		if time.Since(start) > 10*time.Second {
			return 0, polls, fmt.Errorf("discovery: %d of %d services visible after 10s", len(p.Registry().Refs()), e.refs)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return time.Since(start), polls, nil
}

func (e *edgeNode) stop() { _ = e.node.Stop() }

// The X-Relations of the paper's Table 2, shared by every workload.
const tablesDDL = `
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
EXTENDED RELATION surveillance ( name STRING, location STRING );
`

// tableRowsDDL fills contacts, surveillance and cameras: contact i manages
// location i mod 64 and is reached through messenger i mod messengers; one
// camera per location.
func tableRowsDDL(contacts, messengers int) string {
	var b strings.Builder
	b.WriteString("INSERT INTO contacts VALUES")
	for i := 0; i < contacts; i++ {
		fmt.Fprintf(&b, "%s\n  (%q, %q, %s)", comma(i), contactName(i), contactAddr(i), messengerRef(i%messengers))
	}
	b.WriteString(";\nINSERT INTO surveillance VALUES")
	for i := 0; i < contacts; i++ {
		fmt.Fprintf(&b, "%s\n  (%q, %q)", comma(i), contactName(i), locName(i%numLocations))
	}
	b.WriteString(";\nINSERT INTO cameras VALUES")
	for l := 0; l < numLocations; l++ {
		fmt.Fprintf(&b, "%s\n  (%s, %q)", comma(l), cameraRef(l), locName(l))
	}
	b.WriteString(";\n")
	return b.String()
}

func comma(i int) string {
	if i == 0 {
		return ""
	}
	return ","
}

// contactsOf lists the contacts managing location l.
func contactsOf(l, contacts int) []int {
	var out []int
	for i := l; i < contacts; i += numLocations {
		out = append(out, i)
	}
	return out
}

const alertText = "Temperature alert!"
