// Package device provides simulated pervasive-environment devices wrapped
// as Serena services: temperature sensors, network cameras, message
// gateways (email/jabber/sms) and RSS feeds.
//
// These replace the paper's physical testbed (Thermochron iButton sensors,
// Logitech webcams, Openfire IM server, Clickatel SMS gateway, newspaper
// RSS feeds — Section 5.2). Every device is deterministic in
// (reference, instant), honouring the paper's assumption that services are
// deterministic at a given time instant (Section 3.2), which makes
// experiments reproducible and memoization sound.
package device

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sync"
	"time"

	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
)

// Canonical prototype declarations of the temperature-surveillance scenario
// (paper Table 1). Devices implement these names; environments must declare
// them in their registry before registering devices.

// SendMessageProto returns the ACTIVE prototype
// sendMessage(address STRING, text STRING) : (sent BOOLEAN).
func SendMessageProto() *schema.Prototype {
	return schema.MustPrototype("sendMessage",
		schema.MustRel(
			schema.Attribute{Name: "address", Type: value.String},
			schema.Attribute{Name: "text", Type: value.String}),
		schema.MustRel(schema.Attribute{Name: "sent", Type: value.Bool}),
		true)
}

// CheckPhotoProto returns the passive prototype
// checkPhoto(area STRING) : (quality INTEGER, delay REAL).
func CheckPhotoProto() *schema.Prototype {
	return schema.MustPrototype("checkPhoto",
		schema.MustRel(schema.Attribute{Name: "area", Type: value.String}),
		schema.MustRel(
			schema.Attribute{Name: "quality", Type: value.Int},
			schema.Attribute{Name: "delay", Type: value.Real}),
		false)
}

// TakePhotoProto returns the passive prototype
// takePhoto(area STRING, quality INTEGER) : (photo BLOB).
func TakePhotoProto() *schema.Prototype {
	return schema.MustPrototype("takePhoto",
		schema.MustRel(
			schema.Attribute{Name: "area", Type: value.String},
			schema.Attribute{Name: "quality", Type: value.Int}),
		schema.MustRel(schema.Attribute{Name: "photo", Type: value.Blob}),
		false)
}

// GetTemperatureProto returns the passive prototype
// getTemperature() : (temperature REAL).
func GetTemperatureProto() *schema.Prototype {
	return schema.MustPrototype("getTemperature", nil,
		schema.MustRel(schema.Attribute{Name: "temperature", Type: value.Real}),
		false)
}

// ScenarioPrototypes returns the four prototypes of Table 1 in declaration
// order.
func ScenarioPrototypes() []*schema.Prototype {
	return []*schema.Prototype{
		SendMessageProto(), CheckPhotoProto(), TakePhotoProto(), GetTemperatureProto(),
	}
}

// hash01 maps (parts, at) to a deterministic pseudo-random float in [0,1).
func hash01(at service.Instant, parts ...string) float64 {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
		_, _ = h.Write([]byte{0})
	}
	var buf [8]byte
	v := uint64(at)
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return float64(h.Sum64()%1_000_000) / 1_000_000
}

// ---------------------------------------------------------------------------
// Temperature sensor.

// HeatEvent raises a sensor's reading by Delta over the inclusive instant
// interval [From, To] — the experiment's "sensors are heated over the
// threshold" stimulus.
type HeatEvent struct {
	From, To service.Instant
	Delta    float64
}

// Sensor simulates a Thermochron-style temperature sensor. The reading at
// instant τ is
//
//	base + amplitude·sin(2π·τ/period) + noise(ref,τ) + Σ active heat events
//
// which is deterministic in (ref, τ).
type Sensor struct {
	ref       string
	location  string
	base      float64
	amplitude float64
	period    float64
	noise     float64

	mu     sync.Mutex
	events []HeatEvent
	count  int64 // number of invocations, for tests/benches
}

// SensorOption configures a Sensor.
type SensorOption func(*Sensor)

// WithDailyCycle sets a sinusoidal temperature cycle.
func WithDailyCycle(amplitude, period float64) SensorOption {
	return func(s *Sensor) { s.amplitude, s.period = amplitude, period }
}

// WithNoise sets the deterministic pseudo-noise amplitude.
func WithNoise(a float64) SensorOption {
	return func(s *Sensor) { s.noise = a }
}

// NewSensor builds a sensor service with the given base temperature.
func NewSensor(ref, location string, base float64, opts ...SensorOption) *Sensor {
	s := &Sensor{ref: ref, location: location, base: base, period: 1440}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Ref implements service.Service.
func (s *Sensor) Ref() string { return s.ref }

// Location returns the sensor's placement (used to build environment
// tables; not exposed through the prototype, matching the paper where
// location is a real attribute of the sensors relation).
func (s *Sensor) Location() string { return s.location }

// PrototypeNames implements service.Service.
func (s *Sensor) PrototypeNames() []string { return []string{"getTemperature"} }

// Implements implements service.Service.
func (s *Sensor) Implements(p string) bool { return p == "getTemperature" }

// Heat schedules a heat event.
func (s *Sensor) Heat(ev HeatEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, ev)
}

// TemperatureAt returns the deterministic reading at an instant.
func (s *Sensor) TemperatureAt(at service.Instant) float64 {
	t := s.base
	if s.amplitude != 0 && s.period > 0 {
		t += s.amplitude * math.Sin(2*math.Pi*float64(at)/s.period)
	}
	if s.noise > 0 {
		t += (hash01(at, "sensor", s.ref) - 0.5) * 2 * s.noise
	}
	s.mu.Lock()
	for _, ev := range s.events {
		if at >= ev.From && at <= ev.To {
			t += ev.Delta
		}
	}
	s.mu.Unlock()
	return math.Round(t*100) / 100
}

// Invocations returns how many times the sensor was invoked.
func (s *Sensor) Invocations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Invoke implements service.Service.
func (s *Sensor) Invoke(_ context.Context, proto string, _ value.Tuple, at service.Instant) ([]value.Tuple, error) {
	if proto != "getTemperature" {
		return nil, fmt.Errorf("%w: %s on %s", service.ErrNotImplemented, proto, s.ref)
	}
	s.mu.Lock()
	s.count++
	s.mu.Unlock()
	return []value.Tuple{{value.NewReal(s.TemperatureAt(at))}}, nil
}

// ---------------------------------------------------------------------------
// Camera.

// Camera simulates a network camera implementing checkPhoto and takePhoto.
// checkPhoto reports a deterministic quality/delay pair that degrades when
// the requested area is not the camera's own; takePhoto produces a
// deterministic pseudo-JPEG blob whose size grows with quality.
type Camera struct {
	ref     string
	area    string
	quality int64
	delay   float64

	mu    sync.Mutex
	shots int64
}

// NewCamera builds a camera covering the given area with a native quality
// level (0–10) and base shutter delay in seconds.
func NewCamera(ref, area string, quality int64, delay float64) *Camera {
	return &Camera{ref: ref, area: area, quality: quality, delay: delay}
}

// Ref implements service.Service.
func (c *Camera) Ref() string { return c.ref }

// PrototypeNames implements service.Service.
func (c *Camera) PrototypeNames() []string { return []string{"checkPhoto", "takePhoto"} }

// Implements implements service.Service.
func (c *Camera) Implements(p string) bool { return p == "checkPhoto" || p == "takePhoto" }

// Shots returns how many photos were taken.
func (c *Camera) Shots() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shots
}

// Invoke implements service.Service.
func (c *Camera) Invoke(_ context.Context, proto string, input value.Tuple, at service.Instant) ([]value.Tuple, error) {
	switch proto {
	case "checkPhoto":
		area := input[0].Str()
		q, d := c.assess(area, at)
		if q < 0 {
			return nil, nil // cannot photograph this area: empty relation
		}
		return []value.Tuple{{value.NewInt(q), value.NewReal(d)}}, nil
	case "takePhoto":
		area := input[0].Str()
		q := input[1].Int()
		have, _ := c.assess(area, at)
		if have < 0 {
			return nil, nil
		}
		if q > have {
			q = have
		}
		if q < 0 {
			q = 0
		}
		c.mu.Lock()
		c.shots++
		c.mu.Unlock()
		return []value.Tuple{{value.NewBlob(c.renderPhoto(area, q, at))}}, nil
	}
	return nil, fmt.Errorf("%w: %s on %s", service.ErrNotImplemented, proto, c.ref)
}

// assess returns the achievable (quality, delay) for an area at an instant;
// quality −1 means the area is out of reach.
func (c *Camera) assess(area string, at service.Instant) (int64, float64) {
	q := c.quality
	d := c.delay
	if area != c.area {
		return -1, 0
	}
	// Lighting varies deterministically over time: ±2 quality levels.
	q += int64(math.Round((hash01(at, "cam", c.ref) - 0.5) * 4))
	if q < 0 {
		q = 0
	}
	if q > 10 {
		q = 10
	}
	d += hash01(at, "camdelay", c.ref) * 0.5
	return q, math.Round(d*1000) / 1000
}

// renderPhoto produces a deterministic pseudo-image: a tagged header plus a
// hash-generated payload sized by quality.
func (c *Camera) renderPhoto(area string, quality int64, at service.Instant) []byte {
	header := fmt.Sprintf("PHOTO:%s:%s:q%d:t%d:", c.ref, area, quality, at)
	size := 64 * (quality + 1)
	buf := make([]byte, 0, len(header)+int(size))
	buf = append(buf, header...)
	seed := hash01(at, "photo", c.ref, area)
	x := uint32(seed * float64(math.MaxUint32))
	for i := int64(0); i < size; i++ {
		x = x*1664525 + 1013904223
		buf = append(buf, byte(x>>24))
	}
	return buf
}

// ---------------------------------------------------------------------------
// Messenger.

// Delivery records one accepted message — the observable side effect of an
// active sendMessage invocation.
type Delivery struct {
	At      service.Instant
	Address string
	Text    string
}

// Messenger simulates a message gateway (email server, jabber server, SMS
// gateway). All accepted messages are appended to an outbox so tests can
// assert on the exact physical effects of active invocations.
type Messenger struct {
	ref string

	mu         sync.Mutex
	outbox     []Delivery
	outboxFile string
	errAddr    map[string]bool
	latency    time.Duration
}

// NewMessenger builds a messenger gateway; its reference names its kind
// ("email", "jabber", "sms", …).
func NewMessenger(ref string) *Messenger {
	return &Messenger{ref: ref, errAddr: map[string]bool{}}
}

// Ref implements service.Service.
func (m *Messenger) Ref() string { return m.ref }

// PrototypeNames implements service.Service.
func (m *Messenger) PrototypeNames() []string { return []string{"sendMessage"} }

// Implements implements service.Service.
func (m *Messenger) Implements(p string) bool { return p == "sendMessage" }

// ErrorFor makes deliveries to an address return an invocation error
// (network-level failure).
func (m *Messenger) ErrorFor(address string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.errAddr[address] = true
}

// SetLatency injects a synchronous delivery latency (for cost benchmarks).
func (m *Messenger) SetLatency(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.latency = d
}

// SetOutboxFile mirrors every accepted delivery as one appended line
// ("instant<TAB>address<TAB>text") in the given file. The cluster chaos
// harness uses it to diff the physical side effects of active invocations
// across process kills — the file survives a SIGKILL, the in-memory outbox
// does not. Append errors are ignored (the in-memory record stays
// authoritative for in-process tests).
func (m *Messenger) SetOutboxFile(path string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.outboxFile = path
}

// Outbox returns a copy of all accepted deliveries.
func (m *Messenger) Outbox() []Delivery {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Delivery, len(m.outbox))
	copy(out, m.outbox)
	return out
}

// Invoke implements service.Service. The injected latency follows the
// delivery and ends early, with ctx's error, when ctx is done.
func (m *Messenger) Invoke(ctx context.Context, proto string, input value.Tuple, at service.Instant) ([]value.Tuple, error) {
	if proto != "sendMessage" {
		return nil, fmt.Errorf("%w: %s on %s", service.ErrNotImplemented, proto, m.ref)
	}
	address, text := input[0].Str(), input[1].Str()
	m.mu.Lock()
	latency := m.latency
	if m.errAddr[address] {
		m.mu.Unlock()
		return nil, fmt.Errorf("device: %s: cannot reach %s", m.ref, address)
	}
	m.outbox = append(m.outbox, Delivery{At: at, Address: address, Text: text})
	file := m.outboxFile
	if file != "" {
		// Append-then-sync inside the lock: the chaos harness reads this
		// file after a SIGKILL, so a delivery must be durable the moment the
		// invocation returns (the same reasoning as the WAL's intent fsync).
		if f, err := os.OpenFile(file, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
			fmt.Fprintf(f, "%d\t%s\t%s\n", at, address, text)
			_ = f.Sync()
			_ = f.Close()
		}
	}
	m.mu.Unlock()
	if latency > 0 {
		if err := resilience.SleepCtx(ctx, latency); err != nil {
			return nil, err
		}
	}
	return []value.Tuple{{value.NewBool(true)}}, nil
}
