package dne

import (
	"fmt"
	"time"

	"nadino/internal/dpu"
	"nadino/internal/ipc"
	"nadino/internal/mempool"
	"nadino/internal/sim"
	"nadino/internal/trace"
)

// Execer is any core a cost can be charged to (Processor or CorePool).
type Execer interface {
	Exec(p *sim.Proc, cost time.Duration)
}

// FnPort is a function's descriptor channel to the node's network engine:
// a DOCA Comch endpoint when the engine is on the DPU, an SK_MSG socket
// pair when it is the CPU-hosted CNE. It is the only way a function touches
// the RDMA data plane — the isolation boundary of §3.3.
type FnPort struct {
	fn     string
	tenant mempool.Name
	owner  mempool.Owner // the function's buffer-owner tag
	engine *Engine

	comch    *dpu.Endpoint
	toEngine *ipc.SKMsg // fn -> CNE
	toFn     *ipc.SKMsg // CNE -> fn

	// ts caches the resolved tenant state, bound lazily on the first send
	// since tenants may register after AttachFunction.
	ts *tenantState
}

// Fn reports the attached function's ID.
func (fp *FnPort) Fn() string { return fp.fn }

// Send hands a descriptor (and the buffer it owns) to the engine for
// inter-node transmission. The calling function must own d.Buf; ownership
// moves to the engine. core is the function's core, charged the channel
// send cost.
func (fp *FnPort) Send(pr *sim.Proc, core Execer, d mempool.Descriptor) error {
	d.Tenant = fp.tenant
	ts := fp.ts
	if ts == nil {
		ts = fp.engine.tenants.Get(fp.tenant)
		if ts == nil {
			return fmt.Errorf("dne: tenant %q not registered with engine", fp.tenant)
		}
		fp.ts = ts
	}
	if err := ts.pool.Transfer(d.Buf, fp.owner, fp.engine.engOwner); err != nil {
		return err
	}
	sp := d.Trace().Begin(trace.StagePortSend, fp.fn)
	if fp.comch != nil {
		core.Exec(pr, fp.comch.SendCost())
		sp.End()
		fp.comch.SendToDNE(d)
	} else {
		core.Exec(pr, fp.toEngine.SendCost())
		sp.End()
		fp.toEngine.Send(d)
	}
	return nil
}

// Recv blocks until the engine delivers a descriptor for this function.
// The returned buffer is owned by the function. core is charged the
// channel wakeup cost.
func (fp *FnPort) Recv(pr *sim.Proc, core Execer) mempool.Descriptor {
	if fp.comch != nil {
		d := fp.comch.RecvOnHost(pr)
		sp := d.Trace().Begin(trace.StagePortRecv, fp.fn)
		if c := fp.comch.HostWakeupCost(); c > 0 {
			core.Exec(pr, c)
		}
		sp.End()
		return d
	}
	d := fp.toFn.Recv(pr)
	sp := d.Trace().Begin(trace.StagePortRecv, fp.fn)
	core.Exec(pr, fp.toFn.WakeupCost())
	sp.End()
	return d
}

// TryRecv is the non-blocking variant for functions that poll (Comch-P).
func (fp *FnPort) TryRecv() (mempool.Descriptor, bool) {
	if fp.comch != nil {
		return fp.comch.TryRecvOnHost()
	}
	return fp.toFn.TryRecv()
}

// PinsHostCore reports whether this channel burns a host core on polling.
func (fp *FnPort) PinsHostCore() bool {
	return fp.comch != nil && fp.comch.PinsHostCore()
}

// engineSidePull fetches one pending fn->engine descriptor plus the cost
// the engine core must pay to ingest it: the Comch progress-engine share on
// the DPU, or the backlog-scaled interrupt cost on the CNE.
func (fp *FnPort) engineSidePull() (mempool.Descriptor, time.Duration, bool) {
	if fp.comch != nil {
		d, ok := fp.comch.TryRecvFromHost()
		if !ok {
			return mempool.Descriptor{}, 0, false
		}
		return d, fp.comch.DNERecvCost(len(fp.engine.portSeq)), true
	}
	// Interrupt pressure scales with how loaded the engine already is:
	// each SK_MSG arrival preempts in-progress engine work (softirq,
	// context switch, cache pollution), so the per-event cost grows as
	// backlog builds — the receive-livelock dynamic that throttles the
	// CNE at high concurrency (§4.3) and that the DNE's hardware-polled
	// Comch input never pays.
	backlog := fp.toEngine.Pending() + fp.engine.sched.Pending()
	d, ok := fp.toEngine.TryRecv()
	if !ok {
		return mempool.Descriptor{}, 0, false
	}
	return d, fp.toEngine.InterruptCost(backlog), true
}

// engineSidePushCost is the engine-side cost of pushing one descriptor to
// the function.
func (fp *FnPort) engineSidePushCost() time.Duration {
	if fp.comch != nil {
		return fp.comch.SendCost()
	}
	return fp.toFn.SendCost()
}

// engineSidePush ships a descriptor engine -> function.
func (fp *FnPort) engineSidePush(d mempool.Descriptor) {
	if fp.comch != nil {
		fp.comch.SendToHost(d)
		return
	}
	fp.toFn.Send(d)
}
