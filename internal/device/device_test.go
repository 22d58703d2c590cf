package device_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"serena/internal/device"
	"serena/internal/service"
	"serena/internal/value"
)

func TestSensorDeterministicAtInstant(t *testing.T) {
	s := device.NewSensor("s1", "office", 21, device.WithDailyCycle(3, 100), device.WithNoise(0.5))
	for _, at := range []service.Instant{0, 1, 50, 999} {
		a := s.TemperatureAt(at)
		b := s.TemperatureAt(at)
		if a != b {
			t.Fatalf("sensor not deterministic at %d: %v vs %v", at, a, b)
		}
	}
	// Different instants should (generally) differ under a cycle.
	if s.TemperatureAt(0) == s.TemperatureAt(25) {
		t.Fatal("cycle has no effect")
	}
	// Distinct refs decorrelate noise.
	s2 := device.NewSensor("s2", "office", 21, device.WithNoise(0.5))
	s3 := device.NewSensor("s3", "office", 21, device.WithNoise(0.5))
	same := 0
	for at := service.Instant(0); at < 20; at++ {
		if s2.TemperatureAt(at) == s3.TemperatureAt(at) {
			same++
		}
	}
	if same == 20 {
		t.Fatal("noise identical across refs")
	}
}

func TestSensorHeatEvents(t *testing.T) {
	s := device.NewSensor("s1", "office", 20)
	s.Heat(device.HeatEvent{From: 5, To: 7, Delta: 10})
	if s.TemperatureAt(4) != 20 || s.TemperatureAt(8) != 20 {
		t.Fatal("heat leaked outside its interval")
	}
	for at := service.Instant(5); at <= 7; at++ {
		if s.TemperatureAt(at) != 30 {
			t.Fatalf("heat not applied at %d: %v", at, s.TemperatureAt(at))
		}
	}
	// Overlapping events accumulate.
	s.Heat(device.HeatEvent{From: 6, To: 6, Delta: 5})
	if s.TemperatureAt(6) != 35 {
		t.Fatalf("overlapping heat = %v", s.TemperatureAt(6))
	}
}

func TestSensorService(t *testing.T) {
	s := device.NewSensor("s1", "lab", 20)
	rows, err := s.Invoke(context.Background(), "getTemperature", nil, 3)
	if err != nil || len(rows) != 1 || rows[0][0].Real() != 20 {
		t.Fatalf("invoke = %v %v", rows, err)
	}
	if s.Invocations() != 1 {
		t.Fatal("invocation counter broken")
	}
	if _, err := s.Invoke(context.Background(), "other", nil, 0); err == nil {
		t.Fatal("wrong prototype accepted")
	}
	if s.Location() != "lab" || s.Ref() != "s1" {
		t.Fatal("accessors broken")
	}
}

func TestCameraCheckAndTake(t *testing.T) {
	c := device.NewCamera("cam1", "office", 7, 0.3)
	rows, err := c.Invoke(context.Background(), "checkPhoto", value.Tuple{value.NewString("office")}, 0)
	if err != nil || len(rows) != 1 {
		t.Fatalf("checkPhoto = %v %v", rows, err)
	}
	q := rows[0][0].Int()
	if q < 5 || q > 9 {
		t.Fatalf("quality = %d, want 7±2", q)
	}
	if d := rows[0][1].Real(); d < 0.3 || d > 0.81 {
		t.Fatalf("delay = %v", d)
	}
	// Out-of-area returns an empty relation (cannot photograph).
	rows, err = c.Invoke(context.Background(), "checkPhoto", value.Tuple{value.NewString("roof")}, 0)
	if err != nil || len(rows) != 0 {
		t.Fatalf("out-of-area checkPhoto = %v %v", rows, err)
	}
	shot, err := c.Invoke(context.Background(), "takePhoto", value.Tuple{value.NewString("office"), value.NewInt(q)}, 0)
	if err != nil || len(shot) != 1 {
		t.Fatalf("takePhoto = %v %v", shot, err)
	}
	photo := shot[0][0].Blob()
	if !bytes.HasPrefix(photo, []byte("PHOTO:cam1:office:")) {
		t.Fatalf("photo header = %q", photo[:24])
	}
	if c.Shots() != 1 {
		t.Fatal("shot counter broken")
	}
	// Higher requested quality than achievable is clamped, not an error.
	shot2, err := c.Invoke(context.Background(), "takePhoto", value.Tuple{value.NewString("office"), value.NewInt(99)}, 0)
	if err != nil || len(shot2) != 1 {
		t.Fatalf("clamped takePhoto = %v %v", shot2, err)
	}
	// Out-of-area takePhoto yields empty.
	shot3, err := c.Invoke(context.Background(), "takePhoto", value.Tuple{value.NewString("roof"), value.NewInt(5)}, 0)
	if err != nil || len(shot3) != 0 {
		t.Fatalf("out-of-area takePhoto = %v %v", shot3, err)
	}
	if _, err := c.Invoke(context.Background(), "other", nil, 0); err == nil {
		t.Fatal("wrong prototype accepted")
	}
}

func TestCameraPhotoSizeScalesWithQuality(t *testing.T) {
	c := device.NewCamera("cam1", "office", 10, 0.1)
	low, _ := c.Invoke(context.Background(), "takePhoto", value.Tuple{value.NewString("office"), value.NewInt(1)}, 0)
	high, _ := c.Invoke(context.Background(), "takePhoto", value.Tuple{value.NewString("office"), value.NewInt(8)}, 0)
	if len(high[0][0].Blob()) <= len(low[0][0].Blob()) {
		t.Fatal("photo size should grow with quality")
	}
}

func TestMessengerDeliveryAndFailures(t *testing.T) {
	m := device.NewMessenger("email")
	send := func(addr, text string) ([]value.Tuple, error) {
		return m.Invoke(context.Background(), "sendMessage", value.Tuple{value.NewString(addr), value.NewString(text)}, 7)
	}
	rows, err := send("a@x", "hi")
	if err != nil || !rows[0][0].Bool() {
		t.Fatalf("send = %v %v", rows, err)
	}
	out := m.Outbox()
	if len(out) != 1 || out[0].Address != "a@x" || out[0].Text != "hi" || out[0].At != 7 {
		t.Fatalf("outbox = %v", out)
	}
	// Hard failure: invocation error, nothing delivered.
	m.ErrorFor("c@x")
	if _, err := send("c@x", "yo"); err == nil {
		t.Fatal("hard failure not surfaced")
	}
	if len(m.Outbox()) != 1 {
		t.Fatal("failed delivery reached the outbox")
	}
	if _, err := m.Invoke(context.Background(), "other", nil, 0); err == nil {
		t.Fatal("wrong prototype accepted")
	}
}

func TestMessengerLatency(t *testing.T) {
	m := device.NewMessenger("email")
	m.SetLatency(30 * time.Millisecond)
	start := time.Now()
	_, err := m.Invoke(context.Background(), "sendMessage", value.Tuple{value.NewString("a@x"), value.NewString("hi")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("latency not applied")
	}
}

func TestFeedDeterministicItems(t *testing.T) {
	f := device.NewFeed("lemonde", "Le Monde", 5, []string{"Obama", "Europe"})
	// Items up to instant 21: seqs 0..4 (published 0,5,10,15,20).
	items := f.ItemsSince(-1, 21)
	if len(items) != 5 {
		t.Fatalf("items = %d, want 5", len(items))
	}
	if items[0].Published != 0 || items[4].Published != 20 {
		t.Fatalf("published = %v", items)
	}
	// Incremental polling: since=10 yields seqs 3,4.
	inc := f.ItemsSince(10, 21)
	if len(inc) != 2 || inc[0].ID != 3 {
		t.Fatalf("incremental = %v", inc)
	}
	// Topic cadence: seq 0 mentions Obama, seq 3 mentions Europe.
	if !strings.Contains(items[0].Title, "Obama") {
		t.Fatalf("item 0 = %q", items[0].Title)
	}
	if !strings.Contains(items[3].Title, "Europe") {
		t.Fatalf("item 3 = %q", items[3].Title)
	}
	if strings.Contains(items[1].Title, "Obama") {
		t.Fatalf("item 1 should be plain: %q", items[1].Title)
	}
	// Determinism.
	again := f.ItemsSince(-1, 21)
	for i := range items {
		if again[i] != items[i] {
			t.Fatal("feed not deterministic")
		}
	}
}

func TestFeedService(t *testing.T) {
	f := device.NewFeed("cnn", "CNN", 3, nil)
	rows, err := f.Invoke(context.Background(), "getItems", value.Tuple{value.NewInt(-1)}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // seqs 0,1,2 published at 0,3,6
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[2][2].Int() != 6 {
		t.Fatalf("published = %v", rows[2])
	}
	if _, err := f.Invoke(context.Background(), "other", nil, 0); err == nil {
		t.Fatal("wrong prototype accepted")
	}
	if f.Ref() != "cnn" || !f.Implements("getItems") {
		t.Fatal("accessors broken")
	}
	// Degenerate period clamps to 1.
	f2 := device.NewFeed("x", "X", 0, nil)
	if got := f2.ItemsSince(-1, 2); len(got) != 3 {
		t.Fatalf("period clamp: %d items", len(got))
	}
}

func TestScenarioPrototypes(t *testing.T) {
	ps := device.ScenarioPrototypes()
	if len(ps) != 4 {
		t.Fatalf("prototypes = %d", len(ps))
	}
	names := []string{"sendMessage", "checkPhoto", "takePhoto", "getTemperature"}
	for i, p := range ps {
		if p.Name != names[i] {
			t.Fatalf("prototype %d = %s", i, p.Name)
		}
	}
	if !ps[0].Active || ps[1].Active || ps[2].Active || ps[3].Active {
		t.Fatal("active flags wrong (only sendMessage is active)")
	}
}
