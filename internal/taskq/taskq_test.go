package taskq

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triggerman/internal/retry"
)

func TestSubmitAndDrain(t *testing.T) {
	p := New(Config{Drivers: 4, T: time.Millisecond, Threshold: time.Millisecond})
	defer p.Close()
	var count int64
	for i := 0; i < 1000; i++ {
		err := p.Submit(Task{Kind: ProcessToken, Run: func() error {
			atomic.AddInt64(&count, 1)
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	p.Drain()
	if count != 1000 {
		t.Fatalf("executed %d", count)
	}
	st := p.Stats()
	if st.Enqueued != 1000 || st.Executed != 1000 || st.Errors != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFollowUpTasks(t *testing.T) {
	// A ProcessToken task fans out RunAction tasks; Drain must cover the
	// whole tree.
	p := New(Config{Drivers: 2, T: time.Millisecond, Threshold: time.Millisecond})
	defer p.Close()
	var actions int64
	for i := 0; i < 10; i++ {
		p.Submit(Task{Kind: ProcessToken, Run: func() error {
			for j := 0; j < 5; j++ {
				p.Submit(Task{Kind: RunAction, Run: func() error {
					atomic.AddInt64(&actions, 1)
					return nil
				}})
			}
			return nil
		}})
	}
	p.Drain()
	if actions != 50 {
		t.Fatalf("actions = %d", actions)
	}
}

func TestErrorsCounted(t *testing.T) {
	var seen int64
	p := New(Config{Drivers: 1, OnError: func(error) { atomic.AddInt64(&seen, 1) }})
	defer p.Close()
	p.Submit(Task{Run: func() error { return fmt.Errorf("boom") }})
	p.Submit(Task{Run: nil}) // nil Run is a no-op, not a crash
	p.Drain()
	if p.Stats().Errors != 1 || seen != 1 {
		t.Errorf("errors = %d, seen = %d", p.Stats().Errors, seen)
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	p := New(Config{Drivers: 1})
	p.Close()
	if err := p.Submit(Task{Run: func() error { return nil }}); err == nil {
		t.Error("submit after close should fail")
	}
}

func TestDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Drivers < 1 {
		t.Error("default drivers")
	}
	if cfg.T != 250*time.Millisecond || cfg.Threshold != 250*time.Millisecond {
		t.Error("paper defaults for T and THRESHOLD")
	}
	half := Config{ConcurrencyLevel: 0.5}.withDefaults()
	if half.Drivers > cfg.Drivers || half.Drivers < 1 {
		t.Errorf("TMAN_CONCURRENCY_LEVEL=0.5 -> %d drivers (full=%d)", half.Drivers, cfg.Drivers)
	}
	bad := Config{ConcurrencyLevel: 7}.withDefaults()
	if bad.ConcurrencyLevel != 1.0 {
		t.Error("out-of-range level should clamp to 1.0")
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{ProcessToken, RunAction, TokenConditions, TokenActions} {
		if k.String() == "" {
			t.Error("kind name")
		}
	}
}

func TestParallelismActuallyHappens(t *testing.T) {
	// With 4 drivers and tasks that block on a shared barrier, all 4
	// must be in-flight simultaneously.
	p := New(Config{Drivers: 4, Threshold: time.Microsecond})
	defer p.Close()
	var inFlight, peak int64
	var mu sync.Mutex
	for i := 0; i < 40; i++ {
		p.Submit(Task{Run: func() error {
			cur := atomic.AddInt64(&inFlight, 1)
			mu.Lock()
			if cur > peak {
				peak = cur
			}
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			atomic.AddInt64(&inFlight, -1)
			return nil
		}})
	}
	p.Drain()
	if peak < 2 {
		t.Errorf("peak concurrency = %d, expected parallel drivers", peak)
	}
}

func TestQueueLenAndSlide(t *testing.T) {
	p := New(Config{Drivers: 1, Threshold: time.Millisecond})
	defer p.Close()
	block := make(chan struct{})
	p.Submit(Task{Run: func() error { <-block; return nil }})
	for i := 0; i < 3000; i++ {
		p.Submit(Task{Run: func() error { return nil }})
	}
	if p.QueueLen() < 2500 {
		t.Errorf("queue len = %d", p.QueueLen())
	}
	close(block)
	p.Drain()
	if p.QueueLen() != 0 {
		t.Errorf("queue len after drain = %d", p.QueueLen())
	}
}

func TestDrainSliceAccounting(t *testing.T) {
	p := New(Config{Drivers: 1, Threshold: 50 * time.Millisecond})
	defer p.Close()
	for i := 0; i < 100; i++ {
		p.Submit(Task{Run: func() error { return nil }})
	}
	p.Drain()
	st := p.Stats()
	if st.DrainSlices < 1 || st.DrainSlices > 100 {
		t.Errorf("drain slices = %d", st.DrainSlices)
	}
}

func TestPanicIsolation(t *testing.T) {
	// A panicking task must be converted into an error, not kill its
	// driver: with a single driver, later tasks still run.
	var panics, after int64
	var got error
	var mu sync.Mutex
	p := New(Config{Drivers: 1, OnError: func(err error) {
		mu.Lock()
		got = err
		mu.Unlock()
	}})
	defer p.Close()
	p.Submit(Task{Kind: RunAction, Run: func() error {
		atomic.AddInt64(&panics, 1)
		panic("poison token")
	}})
	for i := 0; i < 10; i++ {
		p.Submit(Task{Run: func() error { atomic.AddInt64(&after, 1); return nil }})
	}
	p.Drain()
	if after != 10 {
		t.Fatalf("driver died: only %d tasks ran after the panic", after)
	}
	st := p.Stats()
	if st.Panics != 1 || st.Errors != 1 {
		t.Errorf("stats = %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	var pe *retry.PanicError
	if !errors.As(got, &pe) || len(pe.Stack) == 0 {
		t.Errorf("OnError got %v, want PanicError with stack", got)
	}
}

func TestDrainReturnsWhenEveryTaskErrors(t *testing.T) {
	// Drain must terminate even when 100% of the queued tasks fail —
	// the errors-only path must still release pending accounting.
	var seen int64
	p := New(Config{Drivers: 2, OnError: func(error) { atomic.AddInt64(&seen, 1) }})
	defer p.Close()
	for i := 0; i < 200; i++ {
		p.Submit(Task{Run: func() error { return fmt.Errorf("always fails") }})
	}
	done := make(chan struct{})
	go func() { p.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return with an all-error queue")
	}
	if seen != 200 || p.Stats().Errors != 200 {
		t.Errorf("OnError saw %d, stats errors %d", seen, p.Stats().Errors)
	}
}

func TestOnErrorReceivesTaskError(t *testing.T) {
	want := fmt.Errorf("specific failure")
	var got error
	var mu sync.Mutex
	p := New(Config{Drivers: 1, OnError: func(err error) {
		mu.Lock()
		got = err
		mu.Unlock()
	}})
	defer p.Close()
	p.Submit(Task{Run: func() error { return want }})
	p.Drain()
	mu.Lock()
	defer mu.Unlock()
	if !errors.Is(got, want) {
		t.Errorf("OnError got %v, want %v", got, want)
	}
}

func TestTaskRetryTransient(t *testing.T) {
	// A transiently failing task is re-enqueued with backoff and Drain
	// waits for its final success.
	pol := &retry.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	var runs int64
	var failed int64
	p := New(Config{Drivers: 2, OnError: func(error) { atomic.AddInt64(&failed, 1) }})
	defer p.Close()
	p.Submit(Task{Kind: ProcessToken, Retry: pol, Run: func() error {
		if atomic.AddInt64(&runs, 1) < 3 {
			return retry.Transient(fmt.Errorf("flaky dequeue"))
		}
		return nil
	}})
	p.Drain()
	if runs != 3 {
		t.Fatalf("runs = %d, want 3", runs)
	}
	if failed != 0 {
		t.Errorf("OnError fired %d times for a task that eventually succeeded", failed)
	}
	if st := p.Stats(); st.Retries != 2 {
		t.Errorf("retries = %d", st.Retries)
	}
}

func TestTaskRetryExhaustionReportsError(t *testing.T) {
	pol := &retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	var runs, failed int64
	p := New(Config{Drivers: 1, OnError: func(error) { atomic.AddInt64(&failed, 1) }})
	defer p.Close()
	p.Submit(Task{Retry: pol, Run: func() error {
		atomic.AddInt64(&runs, 1)
		return retry.Transient(fmt.Errorf("still down"))
	}})
	p.Drain()
	if runs != 3 {
		t.Fatalf("runs = %d, want 3 (MaxAttempts)", runs)
	}
	if failed != 1 {
		t.Errorf("OnError fired %d times, want once at exhaustion", failed)
	}
}

func TestTaskRetrySkipsPermanentErrors(t *testing.T) {
	pol := &retry.Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	var runs int64
	p := New(Config{Drivers: 1})
	defer p.Close()
	p.Submit(Task{Retry: pol, Run: func() error {
		atomic.AddInt64(&runs, 1)
		return fmt.Errorf("semantic error") // unmarked => not retried
	}})
	p.Drain()
	if runs != 1 {
		t.Errorf("permanent error retried %d times", runs)
	}
}

func TestStealingDrainsHotShard(t *testing.T) {
	// All tasks carry the same key, so they land on one shard; the
	// other drivers must steal to help drain it.
	p := New(Config{Drivers: 4, Threshold: 10 * time.Millisecond, T: time.Millisecond})
	defer p.Close()
	var inFlight, peak, count int64
	var mu sync.Mutex
	for i := 0; i < 64; i++ {
		p.Submit(Task{Kind: ProcessToken, Key: 7, Run: func() error {
			cur := atomic.AddInt64(&inFlight, 1)
			mu.Lock()
			if cur > peak {
				peak = cur
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&inFlight, -1)
			atomic.AddInt64(&count, 1)
			return nil
		}})
	}
	p.Drain()
	if count != 64 {
		t.Fatalf("executed %d", count)
	}
	if peak < 2 {
		t.Errorf("peak concurrency = %d; stealing should parallelize a single hot shard", peak)
	}
	if st := p.Stats(); st.Steals == 0 {
		t.Errorf("steals = 0 with one hot shard and 4 drivers; stats = %+v", st)
	}
}

func TestSerialKeyOrderingUnderStealing(t *testing.T) {
	// Serial tasks sharing a key must observe enqueue order even with
	// many drivers stealing; tasks on other keys run freely in between.
	p := New(Config{Drivers: 8, Threshold: time.Millisecond, T: time.Millisecond})
	defer p.Close()
	const n = 500
	var mu sync.Mutex
	var got []int
	for i := 0; i < n; i++ {
		i := i
		p.Submit(Task{Kind: ProcessToken, Key: 42, Serial: true, Run: func() error {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
			return nil
		}})
		// Interfering unkeyed work to force stealing and shard churn.
		p.Submit(Task{Kind: RunAction, Run: func() error { return nil }})
	}
	p.Drain()
	if len(got) != n {
		t.Fatalf("ran %d serial tasks, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("serial key order violated at %d: got %d", i, v)
		}
	}
}

func TestSerialKeysDoNotBlockEachOther(t *testing.T) {
	// Two serial keys mapping to different shards proceed in parallel:
	// key A blocking must not stop key B.
	p := New(Config{Drivers: 2, Threshold: time.Millisecond, T: time.Millisecond})
	defer p.Close()
	gate := make(chan struct{})
	var bRan int64
	p.Submit(Task{Key: 1, Serial: true, Run: func() error { <-gate; return nil }})
	p.Submit(Task{Key: 2, Serial: true, Run: func() error {
		atomic.AddInt64(&bRan, 1)
		return nil
	}})
	deadline := time.Now().Add(2 * time.Second)
	for atomic.LoadInt64(&bRan) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("key 2 never ran while key 1 was blocked")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	p.Drain()
}

func TestSerialBlockedTaskCountsAsQueued(t *testing.T) {
	// A popped-but-blocked serial task is still "queued, not running":
	// QueueLen (and the depth gauge) must include it until it runs.
	p := New(Config{Drivers: 2, Threshold: time.Millisecond, T: time.Millisecond})
	defer p.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	p.Submit(Task{Key: 9, Serial: true, Run: func() error { close(started); <-gate; return nil }})
	<-started
	p.Submit(Task{Key: 9, Serial: true, Run: func() error { return nil }})
	// Give the second driver time to pop the blocked task into the
	// shard's blocked list.
	deadline := time.Now().Add(time.Second)
	for p.QueueLen() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue len = %d, want 1 (blocked serial task)", p.QueueLen())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	p.Drain()
	if p.QueueLen() != 0 {
		t.Errorf("queue len after drain = %d", p.QueueLen())
	}
}

func TestOverflowSpillKeepsSubmitCheap(t *testing.T) {
	// With one driver wedged, unkeyed submits past the spill depth land
	// on the overflow queue; everything still runs once unwedged.
	p := New(Config{Drivers: 1, Threshold: time.Millisecond, T: time.Millisecond})
	defer p.Close()
	gate := make(chan struct{})
	p.Submit(Task{Run: func() error { <-gate; return nil }})
	var count int64
	const n = spillDepth * 3
	for i := 0; i < n; i++ {
		p.Submit(Task{Run: func() error { atomic.AddInt64(&count, 1); return nil }})
	}
	if got := p.overflow.depth.Load(); got == 0 {
		t.Errorf("overflow depth = 0 after %d submits onto a wedged shard", n)
	}
	if got := p.QueueLen(); got < n-1 {
		t.Errorf("queue len = %d, want >= %d", got, n-1)
	}
	close(gate)
	p.Drain()
	if count != n {
		t.Fatalf("executed %d, want %d", count, n)
	}
}

func TestParkUnparkCounters(t *testing.T) {
	p := New(Config{Drivers: 2, Threshold: time.Millisecond, T: time.Hour})
	defer p.Close()
	// Let the drivers go idle: with T enormous they park until woken.
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Parks < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("parks = %d, want both idle drivers parked", p.Stats().Parks)
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	p.Submit(Task{Run: func() error { close(done); return nil }})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("submit did not wake a parked driver")
	}
	p.Drain()
	if st := p.Stats(); st.Unparks == 0 {
		t.Errorf("unparks = 0 after a wake-up submit; stats = %+v", st)
	}
}

func TestKeyedRoutingIsDeterministic(t *testing.T) {
	p := New(Config{Drivers: 4, Threshold: time.Millisecond, T: time.Millisecond})
	defer p.Close()
	for _, key := range []int64{1, -1, 12345, -98765} {
		a, b := p.shardFor(Task{Key: key}), p.shardFor(Task{Key: key})
		if a != b {
			t.Errorf("key %d routed to two different shards", key)
		}
		if a == p.overflow {
			t.Errorf("key %d routed to the overflow queue", key)
		}
	}
}

func TestSerialRetryStillCompletes(t *testing.T) {
	// A transiently failing serial task releases its key, retries via
	// the normal queue path, and later same-key tasks wait their turn.
	pol := &retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	p := New(Config{Drivers: 4, Threshold: time.Millisecond, T: time.Millisecond})
	defer p.Close()
	var first, second int64
	p.Submit(Task{Key: 5, Serial: true, Retry: pol, Run: func() error {
		if atomic.AddInt64(&first, 1) < 2 {
			return retry.Transient(fmt.Errorf("flaky"))
		}
		return nil
	}})
	p.Submit(Task{Key: 5, Serial: true, Run: func() error {
		atomic.AddInt64(&second, 1)
		return nil
	}})
	p.Drain()
	if first != 2 || second != 1 {
		t.Errorf("first ran %d (want 2), second ran %d (want 1)", first, second)
	}
}

func TestCloseWaitsForScheduledRetries(t *testing.T) {
	// Close must not strand a retry scheduled via AfterFunc: the final
	// incarnation still runs before Close returns.
	pol := &retry.Policy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 5 * time.Millisecond}
	var runs int64
	p := New(Config{Drivers: 1})
	p.Submit(Task{Retry: pol, Run: func() error {
		if atomic.AddInt64(&runs, 1) < 2 {
			return retry.Transient(fmt.Errorf("flaky"))
		}
		return nil
	}})
	p.Close()
	if got := atomic.LoadInt64(&runs); got != 2 {
		t.Errorf("runs at Close return = %d, want 2", got)
	}
}

func TestPoolRunsEveryTaskOnConfiguredDrivers(t *testing.T) {
	const drivers = 4
	p := New(Config{Drivers: drivers, T: time.Millisecond, Threshold: time.Millisecond})
	defer p.Close()
	var ran int64
	for i := 0; i < 2000; i++ {
		if err := p.Submit(Task{Kind: ProcessToken, Run: func() error {
			atomic.AddInt64(&ran, 1)
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	p.Drain()
	if ran != 2000 {
		t.Fatalf("executed %d tasks, want 2000", ran)
	}
	if p.Drivers() != drivers {
		t.Fatalf("Drivers() = %d, want %d", p.Drivers(), drivers)
	}
}
