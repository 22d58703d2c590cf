// Package paperenv builds the exact relational pervasive environment of the
// paper's temperature-surveillance scenario (Gripay et al., EDBT 2010,
// Sections 1.2, 2 and 5.2): the four prototypes and nine services of
// Table 1, the X-Relation schemas of Table 2, and the example data of the
// motivating tables. It is shared by tests, examples and benchmarks so the
// paper's Examples 4–7 and Table 4 queries can be replayed verbatim.
package paperenv

import (
	"serena/internal/algebra"
	"serena/internal/device"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
)

// ContactsSchema returns the extended schema of the contacts X-Relation
// (Table 2 / Example 4): name, address, text VIRTUAL, messenger SERVICE,
// sent VIRTUAL, with binding pattern sendMessage[messenger].
func ContactsSchema() *schema.Extended {
	return schema.MustExtended("contacts",
		[]schema.ExtAttr{
			{Attribute: schema.Attribute{Name: "name", Type: value.String}},
			{Attribute: schema.Attribute{Name: "address", Type: value.String}},
			{Attribute: schema.Attribute{Name: "text", Type: value.String}, Virtual: true},
			{Attribute: schema.Attribute{Name: "messenger", Type: value.Service}},
			{Attribute: schema.Attribute{Name: "sent", Type: value.Bool}, Virtual: true},
		},
		[]schema.BindingPattern{{Proto: device.SendMessageProto(), ServiceAttr: "messenger"}})
}

// CamerasSchema returns the extended schema of the cameras X-Relation
// (Table 2): camera SERVICE, area, quality VIRTUAL, delay VIRTUAL,
// photo VIRTUAL, with binding patterns checkPhoto[camera], takePhoto[camera].
func CamerasSchema() *schema.Extended {
	return schema.MustExtended("cameras",
		[]schema.ExtAttr{
			{Attribute: schema.Attribute{Name: "camera", Type: value.Service}},
			{Attribute: schema.Attribute{Name: "area", Type: value.String}},
			{Attribute: schema.Attribute{Name: "quality", Type: value.Int}, Virtual: true},
			{Attribute: schema.Attribute{Name: "delay", Type: value.Real}, Virtual: true},
			{Attribute: schema.Attribute{Name: "photo", Type: value.Blob}, Virtual: true},
		},
		[]schema.BindingPattern{
			{Proto: device.CheckPhotoProto(), ServiceAttr: "camera"},
			{Proto: device.TakePhotoProto(), ServiceAttr: "camera"},
		})
}

// SensorsSchema returns the extended schema of the temperature-sensors
// X-Relation of Section 1.2: sensor SERVICE, location, temperature VIRTUAL,
// with binding pattern getTemperature[sensor].
func SensorsSchema() *schema.Extended {
	return schema.MustExtended("sensors",
		[]schema.ExtAttr{
			{Attribute: schema.Attribute{Name: "sensor", Type: value.Service}},
			{Attribute: schema.Attribute{Name: "location", Type: value.String}},
			{Attribute: schema.Attribute{Name: "temperature", Type: value.Real}, Virtual: true},
		},
		[]schema.BindingPattern{{Proto: device.GetTemperatureProto(), ServiceAttr: "sensor"}})
}

// SurveillanceSchema returns the plain relation of Section 5.2 indicating
// who manages which area: (name, location), no virtual attributes.
func SurveillanceSchema() *schema.Extended {
	return schema.MustExtended("surveillance",
		[]schema.ExtAttr{
			{Attribute: schema.Attribute{Name: "name", Type: value.String}},
			{Attribute: schema.Attribute{Name: "location", Type: value.String}},
		}, nil)
}

// TemperaturesSchema returns the schema of the temperatures stream of
// Section 1.2/Example 8: (sensor SERVICE, location STRING, temperature
// REAL), all real — readings materialized into the stream.
func TemperaturesSchema() *schema.Extended {
	return schema.MustExtended("temperatures",
		[]schema.ExtAttr{
			{Attribute: schema.Attribute{Name: "sensor", Type: value.Service}},
			{Attribute: schema.Attribute{Name: "location", Type: value.String}},
			{Attribute: schema.Attribute{Name: "temperature", Type: value.Real}},
		}, nil)
}

// Contacts returns the contacts X-Relation with the data of Example 4.
func Contacts() *algebra.XRelation {
	return algebra.MustNew(ContactsSchema(), []value.Tuple{
		{value.NewString("Nicolas"), value.NewString("nicolas@elysee.fr"), value.NewService("email")},
		{value.NewString("Carla"), value.NewString("carla@elysee.fr"), value.NewService("email")},
		{value.NewString("Francois"), value.NewString("francois@im.gouv.fr"), value.NewService("jabber")},
	})
}

// Cameras returns the cameras X-Relation over the scenario's three cameras.
func Cameras() *algebra.XRelation {
	return algebra.MustNew(CamerasSchema(), []value.Tuple{
		{value.NewService("camera01"), value.NewString("corridor")},
		{value.NewService("camera02"), value.NewString("office")},
		{value.NewService("webcam07"), value.NewString("roof")},
	})
}

// Sensors returns the sensors X-Relation with the data of Section 1.2.
func Sensors() *algebra.XRelation {
	return algebra.MustNew(SensorsSchema(), []value.Tuple{
		{value.NewService("sensor01"), value.NewString("corridor")},
		{value.NewService("sensor06"), value.NewString("office")},
		{value.NewService("sensor07"), value.NewString("office")},
		{value.NewService("sensor22"), value.NewString("roof")},
	})
}

// Surveillance returns the surveillance relation of Section 5.2 ("Carla
// wants to know when the temperature in Nicolas's office exceeds 28°C").
func Surveillance() *algebra.XRelation {
	return algebra.MustNew(SurveillanceSchema(), []value.Tuple{
		{value.NewString("Carla"), value.NewString("office")},
		{value.NewString("Nicolas"), value.NewString("corridor")},
		{value.NewString("Francois"), value.NewString("roof")},
	})
}

// Devices bundles the concrete simulated devices of an Environment so tests
// can stimulate them (heat a sensor) and observe effects (messenger
// outboxes, camera shot counts).
type Devices struct {
	Sensors    map[string]*device.Sensor
	Cameras    map[string]*device.Camera
	Messengers map[string]*device.Messenger
}

// NewRegistry builds a registry holding the paper's 4 prototypes and 9
// services (Table 1): email, jabber, camera01, camera02, webcam07,
// sensor01, sensor06, sensor07, sensor22. Base temperatures are chosen so
// that, absent heat events, all sensors read below the scenario thresholds.
// Options, if given, set the registry's fault-tolerance policy.
func NewRegistry(opts ...service.Options) (*service.Registry, *Devices, error) {
	reg := service.NewRegistry(opts...)
	for _, p := range device.ScenarioPrototypes() {
		if err := reg.RegisterPrototype(p); err != nil {
			return nil, nil, err
		}
	}
	d := &Devices{
		Sensors:    map[string]*device.Sensor{},
		Cameras:    map[string]*device.Camera{},
		Messengers: map[string]*device.Messenger{},
	}
	sensors := []struct {
		ref, loc string
		base     float64
	}{
		{"sensor01", "corridor", 19},
		{"sensor06", "office", 21},
		{"sensor07", "office", 22},
		{"sensor22", "roof", 15},
	}
	for _, s := range sensors {
		sv := device.NewSensor(s.ref, s.loc, s.base)
		d.Sensors[s.ref] = sv
		if err := reg.Register(sv); err != nil {
			return nil, nil, err
		}
	}
	cams := []struct {
		ref, area string
		quality   int64
		delay     float64
	}{
		{"camera01", "corridor", 8, 0.2},
		{"camera02", "office", 7, 0.3},
		{"webcam07", "roof", 5, 0.5},
	}
	for _, c := range cams {
		cv := device.NewCamera(c.ref, c.area, c.quality, c.delay)
		d.Cameras[c.ref] = cv
		if err := reg.Register(cv); err != nil {
			return nil, nil, err
		}
	}
	for _, ref := range []string{"email", "jabber"} {
		mv := device.NewMessenger(ref)
		d.Messengers[ref] = mv
		if err := reg.Register(mv); err != nil {
			return nil, nil, err
		}
	}
	return reg, d, nil
}

// MustRegistry is NewRegistry panicking on error.
func MustRegistry(opts ...service.Options) (*service.Registry, *Devices) {
	reg, d, err := NewRegistry(opts...)
	if err != nil {
		panic(err)
	}
	return reg, d
}
