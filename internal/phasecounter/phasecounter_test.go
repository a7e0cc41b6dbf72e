package phasecounter

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPlainCounterBasics(t *testing.T) {
	d := NewDomain(4)
	var c Counter
	c.Add(d, 0, 5)
	c.Add(d, -1, 2)
	if got := c.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
	if got := c.Reconciled(); got != 7 {
		t.Fatalf("plain Reconciled = %d, want 7 (base is always current)", got)
	}
	if c.Phase() != PhasePlain {
		t.Fatalf("Phase = %v, want plain", c.Phase())
	}
	if c.Slices() != 0 || c.Reconciles() != 0 {
		t.Fatalf("plain counter reports slices=%d reconciles=%d, want 0/0", c.Slices(), c.Reconciles())
	}
}

func TestExplicitSplitAndReconcile(t *testing.T) {
	d := NewDomain(4)
	var c Counter
	c.Add(d, 1, 3)
	c.Split(d)
	if c.Phase() != PhaseSliced || c.Slices() != 4 {
		t.Fatalf("after Split: phase=%v slices=%d, want sliced/4", c.Phase(), c.Slices())
	}
	c.Add(d, 0, 10)
	c.Add(d, 1, 20)
	c.Add(d, 5, 1) // wraps to slot 1
	c.Add(d, -1, 100)
	if got := c.Value(); got != 134 {
		t.Fatalf("sliced Value = %d, want 134", got)
	}
	// Reconciled lags until a fold runs.
	if got := c.Reconciled(); got != 0 {
		t.Fatalf("pre-fold Reconciled = %d, want 0", got)
	}
	d.Reconcile()
	if got := c.Reconciled(); got != 134 {
		t.Fatalf("post-fold Reconciled = %d, want 134", got)
	}
	if c.Reconciles() != 1 {
		t.Fatalf("Reconciles = %d, want 1", c.Reconciles())
	}
	if c.LastReconcile().IsZero() {
		t.Fatal("LastReconcile is zero after a fold")
	}
	st := d.Stats()
	if st.Sliced != 1 || st.Promotions != 1 || st.Reconciles != 1 {
		t.Fatalf("domain stats = %+v, want sliced=1 promotions=1 reconciles=1", st)
	}
}

func TestContentionPromotes(t *testing.T) {
	d := NewDomain(8)
	var c Counter
	var wg sync.WaitGroup
	const goroutines, per = 8, 20000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(d, slot, 1)
				if i%64 == 0 {
					// Force interleaving so writer switches happen even on
					// a single-P scheduler (GOMAXPROCS=1 CI runners).
					runtime.Gosched()
				}
			}
		}(g)
	}
	wg.Wait()
	d.Reconcile()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("Value = %d, want %d (no update may be lost)", got, goroutines*per)
	}
	if c.Phase() != PhaseSliced {
		t.Fatal("sustained 8-way contention did not promote the counter")
	}
}

// TestSpinningReconcilerKeepsRecentCounterSliced: epochs ticked back to
// back are no evidence that a counter went cold, so a counter active
// moments ago stays sliced however many idle epochs pass before the
// wall-time floor.
func TestSpinningReconcilerKeepsRecentCounterSliced(t *testing.T) {
	d := NewDomain(2)
	var c Counter
	c.Split(d)
	c.Add(d, 0, 1)
	for i := 0; i < 100*demoteIdleEpochs; i++ {
		d.Reconcile()
	}
	if c.Phase() != PhaseSliced || d.Stats().Demotions != 0 {
		t.Fatalf("phase = %s, demotions = %d after a burst of idle epochs; want sliced, 0",
			c.Phase(), d.Stats().Demotions)
	}
}

func TestDemoteAfterIdleAndRepromote(t *testing.T) {
	d := NewDomain(2)
	var c Counter
	c.Split(d)
	c.Add(d, 0, 7)
	d.Reconcile() // folds 7, idle=0
	time.Sleep(demoteIdleFor)
	for i := 0; i < demoteIdleEpochs; i++ {
		d.Reconcile()
	}
	if c.Phase() != PhasePlain {
		t.Fatalf("cold counter did not demote after %d idle epochs", demoteIdleEpochs)
	}
	if d.Stats().Demotions != 1 {
		t.Fatalf("demotions = %d, want 1", d.Stats().Demotions)
	}
	// Demoted counters keep counting (plain path) and can re-promote.
	c.Add(d, 1, 3)
	if got := c.Value(); got != 10 {
		t.Fatalf("post-demotion Value = %d, want 10", got)
	}
	c.Split(d)
	if c.Phase() != PhaseSliced {
		t.Fatal("Split did not re-arm a demoted counter")
	}
	c.Add(d, 1, 5)
	d.Reconcile()
	if got, want := c.Value(), int64(15); got != want {
		t.Fatalf("re-promoted Value = %d, want %d", got, want)
	}
	if d.Stats().Promotions != 2 {
		t.Fatalf("promotions = %d, want 2", d.Stats().Promotions)
	}
}

// TestExactnessUnderConcurrentReconcile is the property test the
// acceptance criteria name: sliced-path totals equal a single-threaded
// reference while reconciles (and the resulting promote/demote churn)
// run concurrently with the adds. Run under -race.
func TestExactnessUnderConcurrentReconcile(t *testing.T) {
	const (
		writers = 8
		rounds  = 4000
		keys    = 16
	)
	d := NewDomain(writers)
	counters := make([]Counter, keys)
	var stop atomic.Bool
	var recons sync.WaitGroup
	recons.Add(1)
	go func() {
		defer recons.Done()
		for !stop.Load() {
			d.Reconcile()
		}
		d.Reconcile()
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for k := range counters {
					// Key 0 takes half the traffic — the contended key.
					if i%2 == 0 {
						counters[0].Add(d, slot, 1)
					}
					counters[k].Add(d, slot, 1)
				}
				if i%16 == 0 {
					runtime.Gosched() // interleave on single-P schedulers too
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	recons.Wait()

	wantHot := int64(writers * rounds * keys / 2 * 1)
	for k := range counters {
		want := int64(writers * rounds)
		if k == 0 {
			want += wantHot
		}
		if got := counters[k].Value(); got != want {
			t.Fatalf("counter %d: Value = %d, want %d", k, got, want)
		}
		if got := counters[k].Reconciled(); got != counters[k].Value() {
			t.Fatalf("counter %d: Reconciled = %d after final fold, want %d", k, got, counters[k].Value())
		}
	}
	if counters[0].Phase() != PhaseSliced && d.Stats().Promotions == 0 {
		t.Fatal("hot key never promoted under 8-way contention")
	}
}

// TestValueNeverOvercounts: concurrent readers during folds may see a
// transient undercount (a delta in transit between slice and base) but
// never more than the true running total.
func TestValueNeverOvercounts(t *testing.T) {
	const writers, rounds = 4, 50000
	d := NewDomain(writers)
	var c Counter
	c.Split(d)
	var wrote atomic.Int64 // monotone lower bound published after each add
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.Add(d, slot, 1)
				wrote.Add(1)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			d.Reconcile()
		}
	}()
	ceiling := int64(writers * rounds)
	for i := 0; i < 20000; i++ {
		if got := c.Value(); got > ceiling {
			stop.Store(true)
			t.Fatalf("Value = %d exceeds total writes %d", got, ceiling)
		}
	}
	stop.Store(true)
	wg.Wait()
	d.Reconcile()
	if got := c.Value(); got != ceiling {
		t.Fatalf("final Value = %d, want %d", got, ceiling)
	}
}

func TestNilAndDegenerateDomains(t *testing.T) {
	var c Counter
	c.Add(nil, 3, 4) // nil domain: plain path, never promotes
	c.Split(nil)
	if c.Phase() != PhasePlain || c.Value() != 4 {
		t.Fatalf("nil-domain counter: phase=%v value=%d", c.Phase(), c.Value())
	}
	var nd *Domain
	nd.Reconcile() // nil receiver is a no-op
	if nd.Slots() != 0 || nd.Stats() != (DomainStats{}) {
		t.Fatal("nil domain stats not zero")
	}
	d := NewDomain(0) // clamps to 1 slot
	if d.Slots() != 1 {
		t.Fatalf("Slots = %d, want clamp to 1", d.Slots())
	}
}

func TestPhaseString(t *testing.T) {
	if PhasePlain.String() != "plain" || PhaseSliced.String() != "sliced" {
		t.Fatalf("Phase strings: %q / %q", PhasePlain.String(), PhaseSliced.String())
	}
}

func BenchmarkPlainUncontended(b *testing.B) {
	d := NewDomain(8)
	var c Counter
	for i := 0; i < b.N; i++ {
		c.Add(d, 0, 1)
	}
}

func BenchmarkSlicedContended(b *testing.B) {
	d := NewDomain(8)
	var c Counter
	c.Split(d)
	var slot atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		s := int(slot.Add(1)) % 8
		for pb.Next() {
			c.Add(d, s, 1)
		}
	})
	if c.Value() != int64(b.N) {
		b.Fatalf("lost updates: %d != %d", c.Value(), b.N)
	}
}
