package service_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"serena/internal/service"
	"serena/internal/value"
)

// TestMemoBeginCoalescesConcurrentDuplicates is the regression test for
// the check-then-invoke race: N goroutines asking for the same (proto, ref,
// input) at the same instant must share ONE physical invocation — the
// paper's Section 3.2 determinism makes all answers at an instant
// interchangeable, so the duplicates were pure over-firing.
func TestMemoBeginCoalescesConcurrentDuplicates(t *testing.T) {
	const goroutines = 32
	m := service.NewMemo()
	var invocations, owners atomic.Int64
	want := []value.Tuple{{value.NewReal(21.5)}}

	var start, done sync.WaitGroup
	start.Add(1)
	errs := make([]error, goroutines)
	rows := make([][]value.Tuple, goroutines)
	for g := 0; g < goroutines; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait() // maximize overlap
			r, fl, st := m.Begin("getTemperature", "sensor01", value.Tuple{})
			switch st {
			case service.BeginOwner:
				owners.Add(1)
				invocations.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the race window
				fl.Complete(want, nil)
				r = want
			case service.BeginShared:
				r, errs[g] = fl.Wait()
			}
			rows[g] = r
		}(g)
	}
	start.Done()
	done.Wait()

	if n := invocations.Load(); n != 1 {
		t.Fatalf("%d concurrent duplicates fired %d physical invocations, want 1", goroutines, n)
	}
	if n := owners.Load(); n != 1 {
		t.Fatalf("owners = %d, want 1", n)
	}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if len(rows[g]) != 1 || rows[g][0][0].Real() != 21.5 {
			t.Fatalf("goroutine %d got %v", g, rows[g])
		}
	}
}

// TestMemoErrorPropagatesToWaitersAndIsNotCached: waiters coalesced onto a
// failing flight see its error, and the failure is NOT cached — the next
// Begin for the same key owns a fresh flight so the call can be retried.
func TestMemoErrorPropagatesToWaitersAndIsNotCached(t *testing.T) {
	m := service.NewMemo()
	boom := errors.New("transient")

	rows, fl, st := m.Begin("p", "svc", value.Tuple{})
	if st != service.BeginOwner || rows != nil {
		t.Fatalf("first Begin: status=%v rows=%v", st, rows)
	}

	var waiterErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, wfl, st := m.Begin("p", "svc", value.Tuple{})
		if st != service.BeginShared {
			t.Errorf("second Begin = %v, want BeginShared onto the open flight", st)
			return
		}
		_, waiterErr = wfl.Wait()
	}()

	time.Sleep(2 * time.Millisecond) // let the waiter park on the flight
	fl.Complete(nil, boom)
	wg.Wait()
	if !errors.Is(waiterErr, boom) {
		t.Fatalf("waiter error = %v, want %v", waiterErr, boom)
	}

	// Errors are not cached: the key must be re-ownable.
	if _, _, st := m.Begin("p", "svc", value.Tuple{}); st != service.BeginOwner {
		t.Fatalf("after a failed flight Begin = %v, want BeginOwner (retry allowed)", st)
	}
}

// TestMemoBeginHitAfterComplete: a successful flight caches its rows, so a
// later Begin at the same instant is a plain hit with no flight.
func TestMemoBeginHitAfterComplete(t *testing.T) {
	m := service.NewMemo()
	want := []value.Tuple{{value.NewBool(true)}}
	_, fl, st := m.Begin("p", "svc", value.Tuple{value.NewString("x")})
	if st != service.BeginOwner {
		t.Fatalf("status = %v", st)
	}
	fl.Complete(want, nil)
	rows, fl2, st := m.Begin("p", "svc", value.Tuple{value.NewString("x")})
	if st != service.BeginHit || fl2 != nil {
		t.Fatalf("status = %v, flight = %v, want plain hit", st, fl2)
	}
	if len(rows) != 1 || !rows[0][0].Bool() {
		t.Fatalf("rows = %v", rows)
	}
}
