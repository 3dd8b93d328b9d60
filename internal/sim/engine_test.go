package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	var got []int
	e.At(30*time.Millisecond, func() { got = append(got, 3) })
	e.At(10*time.Millisecond, func() { got = append(got, 1) })
	e.At(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	fired := false
	ev := e.After(time.Millisecond, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelRemovesFromHeap(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = e.After(time.Duration(i+1)*time.Millisecond, func() { t.Fatal("canceled event fired") })
	}
	if e.Pending() != 10 {
		t.Fatalf("pending = %d, want 10", e.Pending())
	}
	// Cancel out of order to exercise interior heap removal.
	for _, i := range []int{5, 0, 9, 3, 7, 1, 8, 2, 6, 4} {
		evs[i].Cancel()
	}
	if e.Pending() != 0 {
		t.Fatalf("pending after cancel = %d, want 0 (canceled events must leave the heap)", e.Pending())
	}
	if evs[0].Pending() {
		t.Fatal("handle still pending after Cancel")
	}
	evs[0].Cancel() // double cancel is a no-op
	e.Run()
}

func TestZeroEventHandleInert(t *testing.T) {
	var ev Event
	ev.Cancel()
	if ev.Pending() {
		t.Fatal("zero handle reports pending")
	}
}

// TestStaleHandleCannotTouchReusedNode proves the generation fence: once an
// event fires (or is canceled) its node returns to the pool, and a handle
// kept from the old life must not cancel the node's next occupant.
func TestStaleHandleCannotTouchReusedNode(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	stale := e.After(time.Millisecond, func() {})
	e.Run() // fires; node goes back to the pool
	fired := false
	fresh := e.After(time.Millisecond, func() { fired = true })
	stale.Cancel() // must be a no-op: different generation
	if stale.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if !fresh.Pending() {
		t.Fatal("fresh event lost its queue slot to a stale Cancel")
	}
	e.Run()
	if !fired {
		t.Fatal("stale Cancel killed the reused node's event")
	}

	// Same fence for cancel-then-reuse.
	a := e.After(time.Millisecond, func() { t.Fatal("canceled event fired") })
	a.Cancel()
	ok := false
	b := e.After(time.Millisecond, func() { ok = true })
	a.Cancel()
	e.Run()
	if !ok {
		t.Fatal("second Cancel on a recycled handle killed the new event")
	}
	_ = b
}

// TestSeqNeverReusedAcrossPooling checks that pooled nodes get fresh
// sequence numbers: same-instant events scheduled through heavy pool churn
// still fire in exact FIFO order.
func TestSeqNeverReusedAcrossPooling(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	// Churn the pool: fire and recycle a batch of nodes.
	for i := 0; i < 64; i++ {
		e.After(time.Microsecond, func() {})
	}
	e.Run()
	var got []int
	base := e.Now() + time.Millisecond
	for i := 0; i < 64; i++ {
		i := i
		e.At(base, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant FIFO violated after pooling: %v", got)
		}
	}
}

func TestSeqOverflowPanics(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	e.seq = math.MaxUint64 // white-box: next At would wrap seq to 0
	defer func() {
		if recover() == nil {
			t.Fatal("seq wrap did not panic")
		}
	}()
	e.After(time.Millisecond, func() {})
}

func TestSeqOrderingNearOverflow(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	e.seq = math.MaxUint64 - 8 // room for exactly 8 more events
	var got []int
	for i := 0; i < 8; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated near seq ceiling: %v", got)
		}
	}
}

// TestHeapStress drives a randomized schedule/cancel mix and checks the
// engine fires exactly the surviving events in (time, insertion) order.
func TestHeapStress(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine(1)
		type rec struct {
			id int
			at time.Duration
		}
		var want []rec
		var got []int
		var handles []Event
		id := 0
		for i := 0; i < 400; i++ {
			at := time.Duration(rng.Intn(500)) * time.Microsecond
			myID := id
			id++
			ev := e.At(at, func() { got = append(got, myID) })
			handles = append(handles, ev)
			want = append(want, rec{id: myID, at: at})
			// Randomly cancel ~1/3 of what's still queued.
			if rng.Intn(3) == 0 && len(handles) > 0 {
				k := rng.Intn(len(handles))
				victim := handles[k]
				if victim.Pending() {
					victim.Cancel()
					// Drop it from the expectation.
					for j := range want {
						if want[j].id == k {
							want = append(want[:j], want[j+1:]...)
							break
						}
					}
				}
			}
		}
		// Stable sort by time keeps insertion order for ties — exactly the
		// engine's (at, seq) contract.
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		e.Run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i].id {
				t.Fatalf("trial %d: fire order diverged at %d: got id %d, want %d", trial, i, got[i], want[i].id)
			}
		}
		e.Stop()
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	e.After(time.Second, func() {})
	e.RunUntil(500 * time.Millisecond)
	if e.Now() != 500*time.Millisecond {
		t.Fatalf("clock = %v, want 500ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunUntil(2 * time.Second)
	if e.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	e.After(time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(time.Millisecond, func() {})
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	var wake time.Duration
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Millisecond)
		wake = p.Now()
	})
	e.Run()
	if wake != 42*time.Millisecond {
		t.Fatalf("woke at %v, want 42ms", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10 * time.Millisecond)
		trace = append(trace, "a1")
		p.Sleep(20 * time.Millisecond)
		trace = append(trace, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15 * time.Millisecond)
		trace = append(trace, "b1")
	})
	e.Run()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := NewEngine(7)
		defer e.Stop()
		var stamps []time.Duration
		q := NewQueue[int](e, 0)
		for i := 0; i < 3; i++ {
			e.Spawn("producer", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(time.Duration(e.Rand().Intn(1000)) * time.Microsecond)
					q.Put(p, j)
				}
			})
		}
		e.Spawn("consumer", func(p *Proc) {
			for i := 0; i < 15; i++ {
				q.Get(p)
				stamps = append(stamps, p.Now())
			}
		})
		e.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != 15 || len(b) != 15 {
		t.Fatalf("runs consumed %d and %d items, want 15", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStopReleasesBlockedProcs(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	for i := 0; i < 5; i++ {
		e.Spawn("stuck", func(p *Proc) {
			q.Get(p) // never satisfied
		})
	}
	e.Run()
	if e.Procs() != 5 {
		t.Fatalf("live procs = %d, want 5", e.Procs())
	}
	e.Stop()
	// The kill sweep is synchronous: nothing is left to drain.
	if e.Procs() != 0 {
		t.Fatalf("live procs after Stop = %d, want 0", e.Procs())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	var ticks []time.Duration
	stop := e.Ticker(10*time.Millisecond, func(now time.Duration) {
		ticks = append(ticks, now)
	})
	e.RunUntil(35 * time.Millisecond)
	stop()
	e.RunUntil(100 * time.Millisecond)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 ticks", ticks)
	}
	for i, tk := range ticks {
		if tk != time.Duration(i+1)*10*time.Millisecond {
			t.Fatalf("tick %d at %v", i, tk)
		}
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	fired := 0
	e.Ticker(10*time.Millisecond, func(time.Duration) { fired++ })
	e.RunFor(35 * time.Millisecond)
	if fired != 3 || e.Now() != 35*time.Millisecond {
		t.Fatalf("fired=%d now=%v", fired, e.Now())
	}
	e.RunFor(10 * time.Millisecond)
	if fired != 4 {
		t.Fatalf("second RunFor fired %d total", fired)
	}
}

func TestImmediateOrdersAfterCurrentInstant(t *testing.T) {
	e := NewEngine(1)
	defer e.Stop()
	var got []int
	e.At(time.Millisecond, func() {
		e.Immediate(func() { got = append(got, 2) })
		got = append(got, 1)
	})
	e.At(time.Millisecond, func() { got = append(got, 3) })
	e.Run()
	// The Immediate lands after events already queued for this instant.
	want := []int{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestCancelNearAndFar cancels events with deadlines from microseconds to
// tens of seconds out and checks none fire and Pending drains to zero.
func TestCancelNearAndFar(t *testing.T) {
	e := NewEngine(3)
	var evs []Event
	for _, d := range []time.Duration{time.Microsecond, 70 * time.Microsecond, 5 * time.Millisecond, 40 * time.Second} {
		evs = append(evs, e.At(d, func() { t.Error("cancelled event fired") }))
	}
	keep := 0
	e.At(100*time.Microsecond, func() { keep++ })
	for _, ev := range evs {
		if !ev.Pending() {
			t.Fatal("event not pending before cancel")
		}
		ev.Cancel()
		if ev.Pending() {
			t.Fatal("event pending after cancel")
		}
		ev.Cancel() // double-cancel is a no-op
	}
	e.Run()
	if keep != 1 {
		t.Fatalf("surviving event fired %d times, want 1", keep)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after run, want 0", e.Pending())
	}
}

// TestCancelAtFireInstant is the regression for the pooled-node recycle
// bug: cancel a handle at the exact virtual instant its event fires (or
// just fired), with the freed node immediately re-armed by other work.
// A stale Cancel must not detach the node's next occupant. Covers a
// victim due in one nanosecond and one due microseconds out; the subtest
// names are the historical names of those two deadline bands.
func TestCancelAtFireInstant(t *testing.T) {
	for _, band := range []struct {
		name  string
		delay time.Duration
	}{{"heap", 1}, {"wheel", 2 * time.Microsecond}} {
		t.Run(band.name, func(t *testing.T) {
			e := NewEngine(4)
			var victim Event
			vFired, succFired := 0, 0
			victim = e.At(band.delay, func() { vFired++ })
			// Same instant, later seq: fires after victim, then cancels the
			// now-stale handle while the recycled node holds a new event.
			e.At(band.delay, func() {
				succ := e.At(e.Now()+band.delay, func() { succFired++ })
				victim.Cancel() // stale: must not touch succ's node
				if !succ.Pending() {
					t.Error("stale Cancel detached recycled node")
				}
			})
			e.Run()
			if vFired != 1 || succFired != 1 {
				t.Fatalf("victim fired %d (want 1), successor fired %d (want 1)", vFired, succFired)
			}
		})
	}
}

// TestCancelSameTickInterleavings sweeps every ordering of {fire A,
// cancel B, fire C} at one instant where B shares the node pool with A
// and C, asserting cancel-at-fire-time never recycles a generation a
// later waiter holds.
func TestCancelSameTickInterleavings(t *testing.T) {
	e := NewEngine(5)
	const at = 10 * time.Microsecond
	fires := make([]int, 3)
	var b Event
	e.At(at, func() { fires[0]++; b.Cancel() }) // A cancels B at B's own fire instant
	b = e.At(at, func() { fires[1]++ })         // B: cancelled by A (same instant, earlier seq)
	e.At(at, func() { fires[2]++ })             // C: must still fire
	e.Run()
	if fires[0] != 1 || fires[1] != 0 || fires[2] != 1 {
		t.Fatalf("fires = %v, want [1 0 1]", fires)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after run", e.Pending())
	}
}

// TestProcWakeFencing kills the window where a process's pending wake
// outlives the body: the Proc slot is recycled by a new Spawn before the
// stale wake's instant arrives. The wake must be swallowed by the
// generation fence, not resume the new occupant early.
func TestProcWakeFencing(t *testing.T) {
	e := NewEngine(6)
	q := NewWaitQueue(e)
	woken := 0
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
	})
	e.RunUntil(5 * time.Microsecond) // sleeper finishes, slot recycled
	e.Spawn("waiter", func(p *Proc) {
		q.Wait(p) // reuses the recycled slot; parks indefinitely
		woken++
	})
	e.RunUntil(20 * time.Microsecond)
	if woken != 0 {
		t.Fatal("recycled proc resumed by a stale or phantom wake")
	}
	q.WakeAll()
	e.Run()
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
}

// TestProcPoolReuse verifies spawn actually recycles process state and
// that generations advance per occupancy.
func TestProcPoolReuse(t *testing.T) {
	e := NewEngine(7)
	var first, second *Proc
	e.Spawn("a", func(p *Proc) { first = p })
	e.Run()
	e.Spawn("b", func(p *Proc) { second = p })
	e.Run()
	if first != second {
		t.Fatal("second spawn did not reuse the pooled proc")
	}
	if len(e.freeProcs) != 1 {
		t.Fatalf("free list has %d procs, want 1", len(e.freeProcs))
	}
}

// TestSpawnSleepZeroAlloc asserts the steady-state spawn+sleep path is
// allocation-free once the pool is primed (BenchmarkProcSpawn must report
// 0 allocs/op).
func TestSpawnSleepZeroAlloc(t *testing.T) {
	e := NewEngine(8)
	// Prime: first spawn allocates the Proc, coroutine and timer.
	e.Spawn("prime", func(p *Proc) { p.Sleep(time.Microsecond) })
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.Spawn("steady", func(p *Proc) {
			p.Sleep(time.Microsecond)
			p.Sleep(3 * time.Microsecond)
		})
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state spawn+sleep allocates %.1f/op, want 0", allocs)
	}
}

// TestBatchedWakeInterleaving checks that two same-instant broadcast
// batches deliver in issue order without absorbing each other's waiters,
// and interleave correctly with plain timers at the same instant.
func TestBatchedWakeInterleaving(t *testing.T) {
	e := NewEngine(9)
	qa, qb := NewWaitQueue(e), NewWaitQueue(e)
	var order []string
	for i := 0; i < 3; i++ {
		name := string(rune('a' + i))
		e.Spawn("wa-"+name, func(p *Proc) { qa.Wait(p); order = append(order, "A"+p.Name()) })
		e.Spawn("wb-"+name, func(p *Proc) { qb.Wait(p); order = append(order, "B"+p.Name()) })
	}
	e.Run() // park everyone
	qa.WakeAll()
	e.At(e.Now(), func() { order = append(order, "timer") })
	qb.WakeAll()
	e.Run()
	want := []string{"Awa-a", "Awa-b", "Awa-c", "timer", "Bwb-a", "Bwb-b", "Bwb-c"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
