// Package bench provides the workload generators and experiment harness of
// the hybrid-query benchmark — the benchmark for pervasive environments the
// paper names as future work (Gripay et al., EDBT 2010, Section 7, the
// OPTIMACS project): parameterized populations of sensor/camera/messenger
// services, environment relations of configurable size and selectivity,
// injectable service latency, and query generators for the data × services
// × streams mixes the evaluation measures.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"serena/internal/algebra"
	"serena/internal/device"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
)

// Config parameterizes a generated environment.
type Config struct {
	Sensors  int // number of temperature sensors
	Cameras  int // number of cameras
	Contacts int // number of contacts (messenger-reachable)
	// Locations is the number of distinct locations; selections on one
	// location thus have selectivity ≈ 1/Locations.
	Locations int
	// ServiceLatency is an injected synchronous delay per invocation,
	// emulating device/network round trips.
	ServiceLatency time.Duration
	Seed           int64
}

// DefaultConfig returns a small, fast environment.
func DefaultConfig() Config {
	return Config{Sensors: 100, Cameras: 10, Contacts: 10, Locations: 10, Seed: 1}
}

// Env is a generated benchmark environment.
type Env struct {
	Config    Config
	Registry  *service.Registry
	Relations query.MapEnv
	Sensors   []*device.Sensor
	Cameras   []*device.Camera
	Messenger *device.Messenger
	Locations []string
}

// latencyService injects a fixed latency in front of a service.
type latencyService struct {
	service.Service
	d time.Duration
}

// Invoke implements service.Service.
func (l latencyService) Invoke(ctx context.Context, proto string, in value.Tuple, at service.Instant) ([]value.Tuple, error) {
	if l.d > 0 {
		if err := resilience.SleepCtx(ctx, l.d); err != nil {
			return nil, err
		}
	}
	return l.Service.Invoke(ctx, proto, in, at)
}

// Generate builds an environment: Sensors sensor services spread over
// Locations, a sensors X-Relation (sensor, location, temperature VIRTUAL),
// Cameras camera services with a cameras X-Relation, Contacts contacts
// reachable through one messenger, and the Table 1 prototypes.
func Generate(cfg Config) (*Env, error) {
	if cfg.Locations < 1 {
		cfg.Locations = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	reg := service.NewRegistry()
	for _, p := range device.ScenarioPrototypes() {
		if err := reg.RegisterPrototype(p); err != nil {
			return nil, err
		}
	}
	env := &Env{Config: cfg, Registry: reg, Relations: query.MapEnv{}}
	for i := 0; i < cfg.Locations; i++ {
		env.Locations = append(env.Locations, fmt.Sprintf("loc%03d", i))
	}

	wrap := func(s service.Service) service.Service {
		if cfg.ServiceLatency > 0 {
			return latencyService{Service: s, d: cfg.ServiceLatency}
		}
		return s
	}

	// Sensors + sensors relation.
	sensorSchema := schema.MustExtended("sensors", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "sensor", Type: value.Service}},
		{Attribute: schema.Attribute{Name: "location", Type: value.String}},
		{Attribute: schema.Attribute{Name: "temperature", Type: value.Real}, Virtual: true},
	}, []schema.BindingPattern{{Proto: device.GetTemperatureProto(), ServiceAttr: "sensor"}})
	var sensorRows []value.Tuple
	for i := 0; i < cfg.Sensors; i++ {
		ref := fmt.Sprintf("sensor%04d", i)
		loc := env.Locations[i%cfg.Locations]
		s := device.NewSensor(ref, loc, 15+rng.Float64()*10)
		env.Sensors = append(env.Sensors, s)
		if err := reg.Register(wrap(s)); err != nil {
			return nil, err
		}
		sensorRows = append(sensorRows, value.Tuple{value.NewService(ref), value.NewString(loc)})
	}
	sensors, err := algebra.New(sensorSchema, sensorRows)
	if err != nil {
		return nil, err
	}
	env.Relations["sensors"] = sensors

	// Cameras + cameras relation.
	cameraSchema := schema.MustExtended("cameras", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "camera", Type: value.Service}},
		{Attribute: schema.Attribute{Name: "area", Type: value.String}},
		{Attribute: schema.Attribute{Name: "quality", Type: value.Int}, Virtual: true},
		{Attribute: schema.Attribute{Name: "delay", Type: value.Real}, Virtual: true},
		{Attribute: schema.Attribute{Name: "photo", Type: value.Blob}, Virtual: true},
	}, []schema.BindingPattern{
		{Proto: device.CheckPhotoProto(), ServiceAttr: "camera"},
		{Proto: device.TakePhotoProto(), ServiceAttr: "camera"},
	})
	var cameraRows []value.Tuple
	for i := 0; i < cfg.Cameras; i++ {
		ref := fmt.Sprintf("camera%04d", i)
		area := env.Locations[i%cfg.Locations]
		c := device.NewCamera(ref, area, 5+int64(rng.Intn(5)), 0.1)
		env.Cameras = append(env.Cameras, c)
		if err := reg.Register(wrap(c)); err != nil {
			return nil, err
		}
		cameraRows = append(cameraRows, value.Tuple{value.NewService(ref), value.NewString(area)})
	}
	cameras, err := algebra.New(cameraSchema, cameraRows)
	if err != nil {
		return nil, err
	}
	env.Relations["cameras"] = cameras

	// Contacts + messenger.
	env.Messenger = device.NewMessenger("email", "email")
	if err := reg.Register(wrap(env.Messenger)); err != nil {
		return nil, err
	}
	contactSchema := schema.MustExtended("contacts", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "name", Type: value.String}},
		{Attribute: schema.Attribute{Name: "address", Type: value.String}},
		{Attribute: schema.Attribute{Name: "text", Type: value.String}, Virtual: true},
		{Attribute: schema.Attribute{Name: "messenger", Type: value.Service}},
		{Attribute: schema.Attribute{Name: "sent", Type: value.Bool}, Virtual: true},
	}, []schema.BindingPattern{{Proto: device.SendMessageProto(), ServiceAttr: "messenger"}})
	var contactRows []value.Tuple
	for i := 0; i < cfg.Contacts; i++ {
		contactRows = append(contactRows, value.Tuple{
			value.NewString(fmt.Sprintf("contact%04d", i)),
			value.NewString(fmt.Sprintf("contact%04d@example.org", i)),
			value.NewService("email"),
		})
	}
	contacts, err := algebra.New(contactSchema, contactRows)
	if err != nil {
		return nil, err
	}
	env.Relations["contacts"] = contacts

	// A surveillance-style plain relation mapping contacts to locations.
	survSchema := schema.MustExtended("surveillance", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "name", Type: value.String}},
		{Attribute: schema.Attribute{Name: "location", Type: value.String}},
	}, nil)
	var survRows []value.Tuple
	for i := 0; i < cfg.Contacts; i++ {
		survRows = append(survRows, value.Tuple{
			value.NewString(fmt.Sprintf("contact%04d", i)),
			value.NewString(env.Locations[i%cfg.Locations]),
		})
	}
	surveillance, err := algebra.New(survSchema, survRows)
	if err != nil {
		return nil, err
	}
	env.Relations["surveillance"] = surveillance
	return env, nil
}

// MustGenerate is Generate panicking on error.
func MustGenerate(cfg Config) *Env {
	e, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// NaivePushdownQuery builds σ_location=loc(β_getTemperature(sensors)) —
// the unoptimized plan invoking every sensor.
func (e *Env) NaivePushdownQuery(loc string) query.Node {
	return query.NewSelect(
		query.NewInvoke(query.NewBase("sensors"), "getTemperature", ""),
		algebra.Compare(algebra.Attr("location"), algebra.Eq, algebra.Const(value.NewString(loc))))
}

// OptimizedPushdownQuery builds β_getTemperature(σ_location=loc(sensors)) —
// the Table 5 rewrite invoking only matching sensors.
func (e *Env) OptimizedPushdownQuery(loc string) query.Node {
	return query.NewInvoke(
		query.NewSelect(query.NewBase("sensors"),
			algebra.Compare(algebra.Attr("location"), algebra.Eq, algebra.Const(value.NewString(loc)))),
		"getTemperature", "")
}

// HybridQuery builds the benchmark's mixed data×service query: join the
// surveillance relation with per-location mean-style sensor readings above
// a threshold, i.e.
//
//	surveillance ⋈ σ_temperature>θ(β_getTemperature(σ_location=loc(sensors)))
func (e *Env) HybridQuery(loc string, threshold float64) query.Node {
	readings := query.NewSelect(
		query.NewInvoke(
			query.NewSelect(query.NewBase("sensors"),
				algebra.Compare(algebra.Attr("location"), algebra.Eq, algebra.Const(value.NewString(loc)))),
			"getTemperature", ""),
		algebra.Compare(algebra.Attr("temperature"), algebra.Gt, algebra.Const(value.NewReal(threshold))))
	return query.NewJoin(query.NewBase("surveillance"), readings)
}
