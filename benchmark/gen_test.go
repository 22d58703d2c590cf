package main

import "testing"

// checksum folds every reading in order: two loads are the same input iff
// their checksums agree.
func (pl *pushLoad) checksum() uint64 {
	var h uint64 = 0xcbf29ce484222325
	for _, rs := range pl.instants {
		for _, r := range rs {
			h = mix64(h ^ (uint64(r.sensor)<<32 | uint64(uint32(r.temp))))
		}
	}
	return h
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a := genPushLoad(42, 512, 256, 60).checksum()
	if b := genPushLoad(42, 512, 256, 60).checksum(); a != b {
		t.Fatalf("same seed gave checksums %x and %x", a, b)
	}
	if c := genPushLoad(43, 512, 256, 60).checksum(); a == c {
		t.Fatalf("seeds 42 and 43 gave the same checksum %x", a)
	}
	if polledTemp(42, 7, 100) != polledTemp(42, 7, 100) {
		t.Fatal("polledTemp is not a function of its arguments")
	}
	same := 0
	for s := 0; s < 64; s++ {
		if polledTemp(42, s, 100) == polledTemp(43, s, 100) {
			same++
		}
	}
	if same > 8 {
		t.Fatalf("seeds 42 and 43 agree on %d of 64 polled temperatures", same)
	}
	if string(photoBlob(42, 3, 9)) != string(photoBlob(42, 3, 9)) || string(photoBlob(42, 3, 9)) == string(photoBlob(42, 3, 10)) {
		t.Fatal("photoBlob must depend on exactly (seed, camera, instant)")
	}
}

// The reference relies on window sums being exact: every temperature is a
// multiple of 1/1024 and a whole window of them stays far below 2^53.
func TestTemperaturesAreExactInFloat64(t *testing.T) {
	load := genPushLoad(1, 512, 256, 16)
	for _, rs := range load.instants {
		for _, r := range rs {
			if f := quantTemp(r.temp); f*tempQuantum != float64(r.temp) {
				t.Fatalf("temperature %d/1024 is not exact as %v", r.temp, f)
			}
		}
	}
}

func TestWindowSetDeduplicates(t *testing.T) {
	load := &pushLoad{sensors: 2, perInstant: 2, instants: [][]reading{
		{{sensor: 0, temp: 100}, {sensor: 1, temp: 200}},
		{{sensor: 0, temp: 100}, {sensor: 1, temp: 300}},
		{{sensor: 0, temp: 400}, {sensor: 1, temp: 300}},
	}}
	if n := len(load.windowSet(1, 2)); n != 3 {
		t.Fatalf("window (−1,1] holds %d distinct readings, want 3", n)
	}
	if n := len(load.windowSet(2, 2)); n != 3 {
		t.Fatalf("window (0,2] holds %d distinct readings, want 3", n)
	}
	if n := len(load.windowSet(2, 1)); n != 2 {
		t.Fatalf("window (1,2] holds %d distinct readings, want 2", n)
	}
}
