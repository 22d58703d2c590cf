package main

import "testing"

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want it", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of 9,1,5 = %v", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if n := samplesBeyond(1000, 99); n != 10 {
		t.Errorf("1000 samples leave %d beyond p99, want 10", n)
	}
	if !supportedTail(1000, 99) {
		t.Error("1000 samples must support p99")
	}
	if supportedTail(999, 99) {
		t.Errorf("999 samples leave %d beyond p99: not supported", samplesBeyond(999, 99))
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{4005, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 50}, {30, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tail percentile for %d samples = %v, want %v", c.n, got, c.want)
		}
	}
}
