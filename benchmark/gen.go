package main

import (
	"fmt"
	"math"
)

// The benchmark owns its load: every input is a pure function of the seed,
// computed here, so no engine change can alter the traffic a run sees.

// splitmix64 is the only random source of the benchmark.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash3 is a stateless draw for (seed, entity, instant): the stubs use it
// so a service's answer depends on nothing but its arguments.
func hash3(seed, a, b uint64) uint64 {
	return mix64(mix64(seed^0x5851f42d4c957f2d+a) + b*0x9e3779b97f4a7c15)
}

// Temperatures are multiples of 1/1024 °C. Sums of a whole window of them
// are then exact in float64 whatever the order of accumulation, so the
// plain-Go reference and the engine must agree to the last bit.
const tempQuantum = 1024

func quantTemp(q int32) float64 { return float64(q) / tempQuantum }

const (
	numLocations = 64
	heatWaveRise = 8 * tempQuantum
	// A location is in a heat wave while (t/waveLength + l) mod waveStride
	// is 0: four of the 64 locations at any instant, rotating.
	waveLength = 40
	waveStride = 16
)

func locName(l int) string     { return fmt.Sprintf("loc%02d", l) }
func sensorRef(i int) string   { return fmt.Sprintf("sens%04d", i) }
func cameraRef(l int) string   { return fmt.Sprintf("cam%02d", l) }
func contactName(i int) string { return fmt.Sprintf("c%03d", i) }
func contactAddr(i int) string { return fmt.Sprintf("c%03d@example.org", i) }
func messengerRef(i int) string {
	return fmt.Sprintf("msg%d", i)
}

func inHeatWave(t, l int) bool { return (t/waveLength+l)%waveStride == 0 }

// baseTemp spreads the locations' resting temperatures over 18.0–21.5 °C,
// so a heat wave (+8 °C) pushes some locations' readings over 28 °C and
// leaves others just under it.
func baseTemp(l int) int32 { return int32(18*tempQuantum + (l%8)*tempQuantum/2) }

// reading is one pushed sensor reading, kept compact: value.Tuples are
// built from it only when the instant is offered.
type reading struct {
	sensor uint16
	temp   int32 // in 1/tempQuantum °C
}

// pushLoad is the pushed-readings input of surveillance and window_churn:
// perInstant readings at every instant, taken round-robin over the sensors,
// each the location's base ± 2 °C of noise, plus the heat wave.
type pushLoad struct {
	sensors    int
	perInstant int
	instants   [][]reading
}

func genPushLoad(seed uint64, sensors, perInstant, instants int) *pushLoad {
	rng := splitmix64{state: seed}
	pl := &pushLoad{sensors: sensors, perInstant: perInstant, instants: make([][]reading, instants)}
	flat := make([]reading, instants*perInstant)
	for t := 0; t < instants; t++ {
		rs := flat[t*perInstant : (t+1)*perInstant : (t+1)*perInstant]
		for k := range rs {
			s := (t*perInstant + k) % sensors
			l := s % numLocations
			q := baseTemp(l) + int32(rng.next()%(4*tempQuantum)) - 2*tempQuantum
			if inHeatWave(t, l) {
				q += heatWaveRise
			}
			rs[k] = reading{sensor: uint16(s), temp: q}
		}
		pl.instants[t] = rs
	}
	return pl
}

// windowSet is the reference for W[period] at instant t: the *set* of
// distinct (sensor, temperature) pairs inserted in (t-period, t].
func (pl *pushLoad) windowSet(t, period int) map[reading]struct{} {
	set := make(map[reading]struct{}, period*pl.perInstant)
	for u := max(t-period+1, 0); u <= t; u++ {
		for _, r := range pl.instants[u] {
			set[r] = struct{}{}
		}
	}
	return set
}

// windowStats is the reference for the two windowed queries every push
// workload registers: the mean per location (rounded to six decimals as
// the engine's mean does; NaN for a location without readings) and the
// number of readings over 28 °C.
func (pl *pushLoad) windowStats(t, period int) (means [numLocations]float64, hot int) {
	var sum [numLocations]int64
	var n [numLocations]int64
	for r := range pl.windowSet(t, period) {
		l := int(r.sensor) % numLocations
		sum[l] += int64(r.temp)
		n[l]++
		if r.temp > hotReading {
			hot++
		}
	}
	for l := range means {
		if n[l] == 0 {
			means[l] = math.NaN()
			continue
		}
		means[l] = round6(float64(sum[l]) / tempQuantum / float64(n[l]))
	}
	return means, hot
}

const (
	hotReading = 28 * tempQuantum // σ temperature > 28
	hotMean    = 24.0             // σ avgtemp > 24
)

func round6(f float64) float64 { return math.Round(f*1e6) / 1e6 }

// polledTemp is what sensor s answers at instant t in the polled workloads
// (remote_beta, oneshot): 22 ± 2 °C, hot (+8) one instant in eight and
// cold (−8) one in 64, so σ>28 fires about 14 messages an instant and σ<20
// about one photo. Photos are kept rare because every photo a stream ever
// emitted stays in the engine's state and in each checkpoint; more of them
// and checkpoints, not the wire, would dominate remote_beta.
func polledTemp(seed uint64, s, t int) int32 {
	h := hash3(seed, uint64(s), uint64(t))
	q := int32(22*tempQuantum) + int32((h>>32)%(4*tempQuantum)) - 2*tempQuantum
	switch r := h % 64; {
	case r < 8:
		q += heatWaveRise
	case r == 8:
		q -= heatWaveRise
	}
	return q
}

// photoBlob is the 4 KiB takePhoto answers with: different for every
// (camera, instant), so every call yields a new row of the photos stream.
func photoBlob(seed uint64, camera, t int) []byte {
	b := make([]byte, 4096)
	rng := splitmix64{state: hash3(seed, uint64(camera)+1<<20, uint64(t))}
	for i := 0; i < len(b); i += 8 {
		x := rng.next()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(x >> (8 * j))
		}
	}
	return b
}

// cameraQuality is checkPhoto's answer for a camera.
func cameraQuality(camera int) int64 { return int64(3 + camera%7) }
