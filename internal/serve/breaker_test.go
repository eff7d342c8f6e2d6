package serve

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock drives the breaker's cooldown deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	b := NewBreaker(threshold, cooldown)
	b.now = clk.Now
	return b, clk
}

// mustAllow asserts admission and settles the unit of work.
func mustAllow(t *testing.T, b *Breaker, failure bool) {
	t.Helper()
	done, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow() = %v, want admitted", err)
	}
	done(failure)
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	b, _ := testBreaker(3, time.Minute)

	// Two failures, then a success: the consecutive counter resets.
	mustAllow(t, b, true)
	mustAllow(t, b, true)
	mustAllow(t, b, false)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state after reset = %v, want closed", st)
	}

	// Three consecutive failures trip it.
	mustAllow(t, b, true)
	mustAllow(t, b, true)
	mustAllow(t, b, true)
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after %d failures = %v, want open", 3, st)
	}
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow while open = %v, want ErrBreakerOpen", err)
	}
	if st := b.Stats(); st.Trips != 1 || st.Rejections != 1 {
		t.Errorf("stats = %+v, want 1 trip, 1 rejection", st)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := testBreaker(1, time.Minute)
	mustAllow(t, b, true) // trip

	// Before the cooldown: rejected.
	clk.Advance(30 * time.Second)
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow mid-cooldown = %v, want ErrBreakerOpen", err)
	}

	// After the cooldown: exactly one probe is admitted; a second
	// concurrent request is rejected while the probe is in flight.
	clk.Advance(31 * time.Second)
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", st)
	}
	probeDone, err := b.Allow()
	if err != nil {
		t.Fatalf("probe Allow = %v, want admitted", err)
	}
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second probe = %v, want ErrBreakerOpen", err)
	}

	// Successful probe closes the breaker for everyone.
	probeDone(false)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state after good probe = %v, want closed", st)
	}
	mustAllow(t, b, false)
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b, clk := testBreaker(1, time.Minute)
	mustAllow(t, b, true) // trip
	clk.Advance(2 * time.Minute)

	probeDone, err := b.Allow()
	if err != nil {
		t.Fatalf("probe Allow = %v", err)
	}
	probeDone(true)
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open again", st)
	}
	if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow after failed probe = %v, want ErrBreakerOpen", err)
	}
	// The re-opened cooldown starts from the probe failure.
	clk.Advance(61 * time.Second)
	probeDone, err = b.Allow()
	if err != nil {
		t.Fatalf("second probe = %v, want admitted", err)
	}
	probeDone(false)
	if st := b.Stats(); st.State != "closed" || st.Trips != 2 {
		t.Errorf("stats = %+v, want closed with 2 trips", st)
	}
}

// TestBreakerStaleOutcomeIgnored: a closed-state request that settles
// after a probe already closed/opened the breaker must not flap it.
func TestBreakerStaleOutcomeIgnored(t *testing.T) {
	b, clk := testBreaker(2, time.Minute)
	slowDone, err := b.Allow() // closed-state request, settles late
	if err != nil {
		t.Fatal(err)
	}
	mustAllow(t, b, true)
	mustAllow(t, b, true) // trips
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state = %v, want open", st)
	}
	slowDone(true) // stale: breaker is open, must be a no-op
	clk.Advance(2 * time.Minute)
	probeDone, err := b.Allow()
	if err != nil {
		t.Fatalf("probe after stale outcome = %v, want admitted", err)
	}
	probeDone(false)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state = %v, want closed", st)
	}
}

// TestBreakerConcurrent: hammering Allow/done from many goroutines
// stays race-free and the automaton's counters stay coherent.
func TestBreakerConcurrent(t *testing.T) {
	b, clk := testBreaker(5, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				done, err := b.Allow()
				if err != nil {
					continue
				}
				done(i%7 == 0)
			}
		}(g)
	}
	wg.Wait()
	st := b.Stats()
	if st.Trips < 0 || st.Rejections < 0 {
		t.Fatalf("negative counters: %+v", st)
	}
	// Settle whatever state the storm left: the breaker must still be
	// operable once its cooldown passes on the clock it reads.
	deadline := time.Now().Add(time.Second)
	for {
		done, err := b.Allow()
		if err == nil {
			done(false)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker wedged after concurrent storm")
		}
		clk.Advance(time.Millisecond)
	}
}
