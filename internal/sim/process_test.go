package sim

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestKilledBodyWithRecoverCountsOnce stops an engine whose blocked body
// swallows the kill with its own deferred recover. The body must end at its
// block point and the live-process count must drop exactly once.
func TestKilledBodyWithRecoverCountsOnce(t *testing.T) {
	e := NewEngine(1)
	pastBlock := false
	e.Spawn("swallower", func(p *Proc) {
		defer func() { recover() }()
		p.Sleep(time.Hour)
		pastBlock = true
	})
	e.RunUntil(time.Millisecond)
	if e.Procs() != 1 {
		t.Fatalf("live procs = %d, want 1", e.Procs())
	}
	e.Stop()
	if e.Procs() != 0 {
		t.Fatalf("live procs after Stop = %d, want 0", e.Procs())
	}
	if pastBlock {
		t.Fatal("killed body ran past its block point")
	}
}

// TestKilledBodyThatCarriesOnIsUnwoundAgain stops an engine whose blocked
// body catches the kill and blocks again. The second block point must
// unwind it too, before its coroutine goes back to the pool.
func TestKilledBodyThatCarriesOnIsUnwoundAgain(t *testing.T) {
	e := NewEngine(1)
	blocks, unwound := 0, 0
	e.Spawn("stubborn", func(p *Proc) {
		defer func() { unwound++ }()
		func() {
			defer func() { recover() }()
			blocks++
			p.Sleep(time.Hour)
		}()
		blocks++
		p.Sleep(time.Hour)
		t.Error("killed body ran past its second block point")
	})
	e.RunUntil(time.Millisecond)
	e.Stop()
	if blocks != 2 || unwound != 1 || e.Procs() != 0 {
		t.Fatalf("blocks = %d, unwound = %d, live procs = %d; want 2, 1, 0", blocks, unwound, e.Procs())
	}
}

// TestStopUnwindsEveryProcOnce blocks 100 processes, stops the engine and
// checks each body's deferred call ran exactly once and every process
// coroutine went back to coroPool. A second engine must reuse those
// coroutines: the goroutine count may not grow from one round to the next.
func TestStopUnwindsEveryProcOnce(t *testing.T) {
	const n = 100
	round := func() int {
		e := NewEngine(1)
		q := NewQueue[int](e, 0)
		deferred := make([]int, n)
		for i := 0; i < n; i++ {
			e.Spawn("stuck", func(p *Proc) {
				defer func() { deferred[i]++ }()
				q.Get(p) // never satisfied
			})
		}
		e.Run()
		e.Stop()
		for i, c := range deferred {
			if c != 1 {
				t.Fatalf("proc %d ran its defer %d times, want 1", i, c)
			}
		}
		if e.Procs() != 0 {
			t.Fatalf("live procs after Stop = %d, want 0", e.Procs())
		}
		coroPool.Lock()
		idle := len(coroPool.free)
		coroPool.Unlock()
		if idle < n {
			t.Fatalf("coroPool holds %d idle coroutines after Stop, want >= %d", idle, n)
		}
		return runtime.NumGoroutine()
	}
	first := round()
	if second := round(); second > first {
		t.Fatalf("goroutines grew from %d to %d across engines; stopped coroutines were not reused", first, second)
	}
}

// TestStopDropsUnstartedProcs stops an engine holding spawns that never
// reached their start event: a fresh process and a pooled one parked
// between bodies. Neither body may run, and both leave the live count.
func TestStopDropsUnstartedProcs(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("pooled", func(p *Proc) {})
	e.Run()
	ran := 0
	e.Spawn("reuses-pooled", func(p *Proc) { ran++ })
	e.Spawn("fresh", func(p *Proc) { ran++ })
	e.Stop()
	if ran != 0 {
		t.Fatalf("%d unstarted bodies ran", ran)
	}
	if e.Procs() != 0 {
		t.Fatalf("live procs after Stop = %d, want 0", e.Procs())
	}
}

// TestStopFromBody stops the engine from inside a running body: the run
// loop exits after the current event and the deferred kill sweep unwinds
// the stopping body and its blocked peer.
func TestStopFromBody(t *testing.T) {
	e := NewEngine(1)
	unwound := 0
	e.Spawn("peer", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(time.Hour)
	})
	e.Spawn("stopper", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(time.Millisecond)
		e.Stop()
		p.Sleep(time.Millisecond)
		t.Error("stopped body resumed")
	})
	e.Run()
	if unwound != 2 || e.Procs() != 0 {
		t.Fatalf("unwound = %d, live procs = %d; want 2 and 0", unwound, e.Procs())
	}
	if e.Now() != time.Millisecond {
		t.Fatalf("stopped at %v, want 1ms", e.Now())
	}
}

type bodyPanic struct{ msg string }

// TestBodyPanicSurfacesOnCaller panics inside a body woken by a timer and
// recovers the original value from RunUntil on the calling goroutine. The
// panic ends that Proc's coroutine, so Stop must not hand it on: a later
// engine's processes all still run.
func TestBodyPanicSurfacesOnCaller(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("crasher", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic(bodyPanic{"boom"})
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.RunUntil(time.Second)
	}()
	e.Stop()
	if bp, ok := got.(bodyPanic); !ok || bp.msg != "boom" {
		t.Fatalf("RunUntil panicked with %#v, want bodyPanic{boom}", got)
	}

	next := NewEngine(1)
	defer next.Stop()
	ran := 0
	for i := 0; i < 4; i++ {
		next.Spawn("after-crash", func(p *Proc) {
			p.Sleep(time.Microsecond)
			ran++
		})
	}
	next.Run()
	if ran != 4 {
		t.Fatalf("%d of 4 bodies ran on the engine after the crash", ran)
	}
}

// TestCoroutinesMoveBetweenGoroutines runs engines on several goroutines
// at once, round after round, so pooled coroutines are handed from one
// engine goroutine to another. Every round must compute the same result;
// under -race this also checks the hand-over is properly synchronized.
func TestCoroutinesMoveBetweenGoroutines(t *testing.T) {
	const workers, rounds, procs = 4, 5, 16
	sim := func() time.Duration {
		e := NewEngine(7)
		defer e.Stop()
		q := NewQueue[int](e, 0)
		var last time.Duration
		for i := 0; i < procs; i++ {
			e.Spawn("producer", func(p *Proc) {
				p.Sleep(time.Duration(e.Rand().Intn(1000)) * time.Microsecond)
				q.Put(p, i)
			})
			e.Spawn("consumer", func(p *Proc) {
				q.Get(p)
				last = p.Now()
			})
		}
		e.Spawn("stuck", func(p *Proc) { q.Get(p) }) // unwound by Stop
		e.Run()
		return last
	}
	want := sim()
	var wg sync.WaitGroup
	got := make([]time.Duration, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got[w*rounds+r] = sim()
			}
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("run %d finished at %v, want %v", i, g, want)
		}
	}
}
