package core

import (
	"fmt"
	"time"

	"nadino/internal/ipc"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/rdma"
	"nadino/internal/sim"
)

// fuyaoEngine reimplements FUYAO's data plane (§4.3 baseline): a CPU-hosted
// per-node network engine that ships inter-node messages with one-sided
// RDMA writes into a dedicated RDMA-only pool on the receiver, where a
// polling core detects arrivals and copies payloads into the node's shared
// memory pool (Fig. 3 (2): separate pools, receiver-side copy). Slot
// credits flow back to senders once the receiver copies out.
type fuyaoEngine struct {
	c     *Cluster
	node  *Node
	owner mempool.Owner

	core     *sim.Processor // engine core (TX + completions)
	pollCore *sim.Processor // receiver polling core (burns a core, §4.3.1)

	inbox *ipc.SKMsg
	work  *sim.Signal

	rdmaPool *mempool.Pool // RDMA-only landing pool
	mr       *rdma.MR
	cq       *rdma.CQ

	conns  map[string]*rdma.ConnPool
	rings  map[string][]rdma.RemoteBuf // free remote slots per destination node
	cqeBuf []rdma.CQE                  // reusable completion drain buffer

	// deferred holds messages waiting for slot credits.
	deferred []mempool.Descriptor

	txCount, rxCount uint64
	creditStalls     uint64
}

// fuyaoRingSlots is the per-destination one-sided landing ring size.
const fuyaoRingSlots = 1024

func newFuyaoEngine(c *Cluster, n *Node) *fuyaoEngine {
	e := &fuyaoEngine{
		c:        c,
		node:     n,
		owner:    mempool.Owner("fuyao@" + string(n.name)),
		core:     sim.NewProcessor(c.Eng, string(n.name)+"/fuyao", c.P.HostCoreSpeed),
		pollCore: sim.NewProcessor(c.Eng, string(n.name)+"/fuyao-poll", c.P.HostCoreSpeed),
		work:     sim.NewSignal(c.Eng),
		rdmaPool: mempool.NewPool(c.cfg.Tenant+"-rdma", c.cfg.BufSize, 4*fuyaoRingSlots, c.P.HugepageSize),
		cq:       rdma.NewCQ(c.Eng),
		conns:    make(map[string]*rdma.ConnPool),
		rings:    make(map[string][]rdma.RemoteBuf),
	}
	e.inbox = ipc.NewSKMsg(c.Eng, c.P, e.work)
	e.mr = n.dpu.RNIC().RegisterMR(e.rdmaPool)
	e.cq.SetNotify(func() { e.work.Pulse() })
	return e
}

// submit hands a descriptor from a local function to the engine. The buffer
// must already be owned by the engine.
func (e *fuyaoEngine) submit(d mempool.Descriptor, _ string) {
	e.inbox.Send(d)
}

// setupFuyao establishes QPs between all node pairs, carves landing rings,
// and starts the engine and poller loops.
func (c *Cluster) setupFuyao(pr *sim.Proc) {
	tenant := c.cfg.Tenant
	done := sim.NewQueue[struct{}](c.Eng, 0)
	jobs := 0
	for i := 0; i < len(c.nodeSeq); i++ {
		for j := i + 1; j < len(c.nodeSeq); j++ {
			a, b := c.nodeSeq[i], c.nodeSeq[j]
			jobs++
			c.Eng.Spawn("fuyao-setup", func(spr *sim.Proc) {
				cpA, cpB := rdma.EstablishPair(spr, c.P, tenant,
					a.dpu.RNIC(), b.dpu.RNIC(), 4,
					nil, nil, a.fuyao.cq, b.fuyao.cq)
				a.fuyao.conns[string(b.name)] = cpA
				b.fuyao.conns[string(a.name)] = cpB
				a.fuyao.rings[string(b.name)] = carveRing(b.fuyao)
				b.fuyao.rings[string(a.name)] = carveRing(a.fuyao)
				done.TryPut(struct{}{})
			})
		}
	}
	for i := 0; i < jobs; i++ {
		done.Get(pr)
	}
	for _, n := range c.nodeSeq {
		e := n.fuyao
		c.Eng.Spawn(string(n.name)+"/fuyao-engine", e.engineLoop)
		c.Eng.Spawn(string(n.name)+"/fuyao-poller", e.pollerLoop)
	}
}

// carveRing allocates landing slots in dst's RDMA-only pool.
func carveRing(dst *fuyaoEngine) []rdma.RemoteBuf {
	slots := make([]rdma.RemoteBuf, 0, fuyaoRingSlots)
	for i := 0; i < fuyaoRingSlots; i++ {
		b, err := dst.rdmaPool.Get("fuyao-ring")
		if err != nil {
			panic(fmt.Sprintf("core: fuyao ring carve: %v", err))
		}
		slots = append(slots, rdma.RemoteBuf{MR: dst.mr, Buf: b})
	}
	return slots
}

// engineLoop is the FUYAO engine's event loop: ingest SK_MSG descriptors
// from local functions (paying interrupt costs — it is CPU-hosted), issue
// one-sided writes when slot credits allow, and recycle source buffers on
// write completions.
func (e *fuyaoEngine) engineLoop(pr *sim.Proc) {
	const batch = 16
	for {
		did := false
		// Retry deferred messages first (credits may have returned).
		if len(e.deferred) > 0 {
			pending := e.deferred
			e.deferred = nil
			for _, d := range pending {
				if !e.txOne(pr, d, false) {
					break
				}
				did = true
			}
		}
		for i := 0; i < batch; i++ {
			backlog := e.inbox.Pending()
			d, ok := e.inbox.TryRecv()
			if !ok {
				break
			}
			e.core.Exec(pr, e.inbox.InterruptCost(backlog))
			if e.txOne(pr, d, true) {
				did = true
			}
		}
		if e.cqeBuf == nil {
			e.cqeBuf = make([]rdma.CQE, batch)
		}
		for i, m := 0, e.cq.PollInto(e.cqeBuf); i < m; i++ {
			cqe := e.cqeBuf[i]
			if cqe.Op == rdma.OpWrite && cqe.Desc.Tenant != 0 {
				// Source buffer can be recycled now.
				if err := e.node.pool(cqe.Desc.Tenant).Put(cqe.Desc.Buf, e.owner); err != nil {
					panic(fmt.Sprintf("core: fuyao source recycle: %v", err))
				}
			}
			did = true
		}
		if !did {
			e.work.Wait(pr)
		}
	}
}

// txOne issues one one-sided write, returning false when out of credits.
func (e *fuyaoEngine) txOne(pr *sim.Proc, d mempool.Descriptor, charge bool) bool {
	p := e.c.P
	dst := e.c.fnByID.Get(d.Dst)
	if dst == nil {
		return true // drop unroutable
	}
	node := string(dst.node.name)
	ring := e.rings[node]
	if len(ring) == 0 {
		e.creditStalls++
		e.deferred = append(e.deferred, d)
		return false
	}
	slot := ring[len(ring)-1]
	e.rings[node] = ring[:len(ring)-1]
	if charge {
		e.core.Exec(pr, p.DNETxCost+p.FuyaoEngineExtra)
	}
	e.core.Exec(pr, p.VerbsPostCost)
	qp := e.conns[node].Pick()
	qp.PostWrite(d, slot)
	e.txCount++
	return true
}

// pollerLoop is the receiver side: scan the RDMA-only region for landed
// writes (FaRM-style), copy each payload into the node's shared-memory
// pool, hand the descriptor to the destination function over SK_MSG, and
// return the slot credit to the sender.
func (e *fuyaoEngine) pollerLoop(pr *sim.Proc) {
	p := e.c.P
	for {
		e.pollCore.Exec(pr, p.OneSidedPollCost)
		landed := e.mr.PollLanded()
		if len(landed) == 0 {
			pr.Sleep(p.FuyaoPollInterval)
			continue
		}
		for _, l := range landed {
			// The receiver-side copy that two-sided RDMA avoids.
			e.pollCore.Exec(pr, p.MemcpyBase+params.Bytes(p.MemcpyPerByteCold, l.Bytes))
			dstFn := e.c.fnByID.Get(l.Desc.Dst)
			if dstFn == nil {
				e.returnCredit(l)
				continue
			}
			buf, err := e.c.getBufferRetry(pr, e.node.pool(l.Desc.Tenant), dstFn.owner)
			if err != nil {
				e.returnCredit(l)
				continue
			}
			d := l.Desc
			d.Buf = buf
			e.pollCore.Exec(pr, p.SKMsgSendCost)
			dstFn.localIn.Send(d)
			e.rxCount++
			e.returnCredit(l)
		}
	}
}

// returnCredit ships the landed slot back to the sender's free ring.
func (e *fuyaoEngine) returnCredit(l rdma.Landed) {
	srcFn := e.c.fnByID.Get(l.Desc.Src)
	if srcFn == nil {
		return
	}
	sender := srcFn.node.fuyao
	slot := rdma.RemoteBuf{MR: e.mr, Buf: l.Buf}
	here := string(e.node.name)
	e.c.Eng.After(3*time.Microsecond, func() {
		sender.rings[here] = append(sender.rings[here], slot)
		sender.work.Pulse()
	})
}
