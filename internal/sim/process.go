//go:build go1.23

// The iter.Pull coroutine needs Go 1.23. The module's go directive stays at
// 1.22 because the perfbench module pins it; this constraint upgrades the
// language version of this file alone. A go1.22 toolchain drops the file
// and fails to build the package rather than compile a second switch
// mechanism.

package sim

import (
	"iter"
	"sync"
	"time"
)

// Proc is a coroutine-style simulation process. Each Proc runs its body on
// a stdlib coroutine (iter.Pull) in strict lockstep with the engine: the
// engine switches into the body with next, and the body switches back with
// yield when it blocks. While a Proc executes, the engine (and every other
// Proc) is suspended, so Proc bodies never race, and a switch is a direct
// coroutine hand-off rather than a scheduler park/unpark pair.
//
// Proc state is pooled: when a body returns, the Proc (coroutine and timer
// slot included) goes back to the engine's free list and the next Spawn
// reuses it, so steady-state spawn churn allocates nothing and starts no
// coroutine. Recycling bumps the Proc's generation; every wake event
// carries the generation it was issued against, so a wake scheduled for a
// finished process can never resume the slot's next occupant. A *Proc kept
// past its body's return observes the recycled state — treat it like a
// closed handle. Engine.Stop hands every coroutine on to a process-wide
// pool that later engines build their Procs from, so a coroutine outlives
// the engine it served.
//
// Engine.Stop unwinds a body blocked inside the simulation with an
// unexported sentinel panic, so its deferred calls run. Bodies must not
// swallow panics they did not raise: a deferred recover that catches the
// sentinel ends the body there, and a body that catches it and carries on
// is unwound again at its next block point. A panic the body does raise
// reaches the goroutine that called RunUntil with its original value.
//
// Proc methods that block (Sleep, WaitQueue.Wait, Semaphore.Acquire, ...)
// must only be called from the Proc's own body.
type Proc struct {
	eng  *Engine
	name string
	// co is the coroutine that runs this Proc's bodies, owned from the
	// Proc's first allocation until Engine.Stop returns it to coroPool.
	co   *coro
	done bool
	// killed is set by Engine.Stop: the next switch into the coroutine
	// unwinds the blocked body, or drops a staged one unrun.
	killed bool
	// gen is the pooling generation fence, bumped on every recycle.
	gen uint64
	// body is the current occupant's function, staged by Spawn and picked
	// up by the pooled coroutine on its next dispatch.
	body func(p *Proc)
	// startFn is p.wake bound once at first allocation; scheduling it on
	// every Spawn must not re-allocate a method value.
	startFn func()
	// timer is the Proc's owned re-armable timer node (wakeProcAt): Sleep
	// and Processor.Exec re-stamp it in place instead of cycling the pool.
	timer *event
}

// coro is a stdlib coroutine that runs the bodies of its owner Proc, one
// after another. Only a body panic ends one: under the race detector an
// ended iter.Pull coroutine keeps its race state for the life of the
// process, so Engine.Stop parks idle coroutines in coroPool for later
// engines to reuse instead.
type coro struct {
	p *Proc
	// next switches into the coroutine until the owner's body blocks or
	// returns. It reports false only after a body panic ended the coroutine.
	next func() (struct{}, bool)
	// yield switches from the coroutine back to whoever called next.
	yield func(struct{}) bool
}

// coroPool holds idle coroutines handed on by stopped engines. Engines on
// different goroutines share it, hence the mutex; it is touched only when an
// engine builds a fresh Proc and when it stops.
var coroPool struct {
	sync.Mutex
	free []*coro
}

// getCoro takes an idle coroutine from coroPool or creates one.
func getCoro() *coro {
	coroPool.Lock()
	if n := len(coroPool.free) - 1; n >= 0 {
		c := coroPool.free[n]
		coroPool.free[n] = nil
		coroPool.free = coroPool.free[:n]
		coroPool.Unlock()
		return c
	}
	coroPool.Unlock()
	c := &coro{}
	c.next, _ = iter.Pull(c.loop)
	return c
}

// putCoro parks an idle coroutine in coroPool, dropping its last owner so
// the pool does not keep a stopped engine reachable.
func putCoro(c *coro) {
	c.p = nil
	coroPool.Lock()
	coroPool.free = append(coroPool.free, c)
	coroPool.Unlock()
}

// procKilled is the sentinel panic that unwinds a body blocked when the
// engine is stopped. It is recovered in Proc.run and never escapes the
// package.
type procKilled struct{}

// Spawn starts body as a new process at the current virtual time. The body
// begins executing when the engine reaches the spawn event during Run.
// The process state comes from the engine's pool when available.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := e.allocProc()
	p.name = name
	p.body = body
	p.done = false
	e.procs++
	e.At(e.now, p.startFn)
	return p
}

// allocProc pops a recycled process or builds a fresh one around a pooled
// coroutine.
func (e *Engine) allocProc() *Proc {
	if n := len(e.freeProcs) - 1; n >= 0 {
		p := e.freeProcs[n]
		e.freeProcs[n] = nil
		e.freeProcs = e.freeProcs[:n]
		return p
	}
	p := &Proc{eng: e, co: getCoro()}
	p.co.p = p
	p.startFn = p.wake
	e.allProcs = append(e.allProcs, p)
	return p
}

// releaseProc ends the current occupancy and recycles the process. It is
// the only place the live-process count drops: Proc.run calls it once per
// staged body, whether the body returned, was unwound by Stop or was
// dropped unrun. The gen bump fences every outstanding wake reference.
func (e *Engine) releaseProc(p *Proc) {
	p.done = true
	e.procs--
	p.gen++
	p.body = nil
	p.name = ""
	e.freeProcs = append(e.freeProcs, p)
}

// loop is the coroutine's service loop: run the owner's staged body, then
// switch back and wait for the next one. It never returns.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.run()
		yield(struct{}{})
	}
}

// run executes the staged body, unless the engine was stopped before it
// started, and recycles the process. The kill sentinel is recovered here,
// at the top of the body's stack; any other panic is re-raised and ends
// the coroutine, reaching the caller of next.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				panic(r)
			}
			p.eng.releaseProc(p)
		}
	}()
	if !p.killed {
		p.body(p)
	}
	p.eng.releaseProc(p)
}

// block switches back to the engine until the process is woken. If the
// engine is stopped meanwhile, the body unwinds (running deferred calls).
func (p *Proc) block() {
	if !p.killed {
		p.co.yield(struct{}{})
	}
	if p.killed {
		panic(procKilled{})
	}
}

// wake switches into a staged or blocked process until it blocks again or
// finishes. It must be called from engine context; wake events reach here
// through Engine.fire with the generation already checked.
func (p *Proc) wake() {
	if p.done {
		return
	}
	p.co.next()
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Sleep blocks the process for d of virtual time. The wakeup re-arms the
// process's owned timer slot in place — no pool traffic, no allocation.
// A zero sleep still yields through the event queue so same-instant
// ordering is consistent with a zero-length timer.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.eng.wakeProcAt(p.eng.now+d, p)
	p.block()
}

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }
