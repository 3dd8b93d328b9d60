package experiments

import (
	"fmt"
	"time"

	"nadino/internal/fabric"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/rdma"
	"nadino/internal/sim"
)

// Fig12Variant names an RDMA-primitive data-plane design (Fig. 3).
type Fig12Variant string

// The compared designs (§4.1.2).
const (
	// TwoSided is NADINO's choice: receiver posts buffers, sender sends.
	TwoSided Fig12Variant = "two-sided"
	// OWRCBest is one-sided write into a dedicated RDMA-only pool with a
	// receiver-side copy that enjoys cache residency.
	OWRCBest Fig12Variant = "OWRC-Best"
	// OWRCWorst is the same with TLB-flushed, main-memory copies.
	OWRCWorst Fig12Variant = "OWRC-Worst"
	// OWDL is one-sided write into the shared pool guarded by distributed
	// locks (remote CAS) to avoid the receiver-oblivious data race.
	OWDL Fig12Variant = "OWDL"
)

// Fig12Variants lists the designs in display order.
var Fig12Variants = []Fig12Variant{TwoSided, OWRCBest, OWRCWorst, OWDL}

// Fig12Row is one (variant, payload) measurement.
type Fig12Row struct {
	Variant Fig12Variant
	Payload int
	RPS     float64
	MeanLat time.Duration
}

// Fig12Result holds the primitive-selection comparison.
type Fig12Result struct {
	Rows []Fig12Row
}

// runOneSidedEcho measures an echo pair built on one-sided writes, with
// the variant's coordination (receiver-side copies or distributed locks).
// One core per side, FaRM-style polling receivers. It posts verbs on bare
// RNICs rather than through core.Cluster: the figure isolates the RDMA
// primitive, and the cluster only ever runs two-sided sends through a DNE,
// so it could not express these variants without changing the golden
// lines.
func runOneSidedEcho(p *params.Params, seed int64, variant Fig12Variant, payload, clients int, dur time.Duration) (float64, time.Duration) {
	eng := sim.NewEngine(seed)
	defer eng.Stop()
	net := fabric.New(eng, p)
	ra := rdma.NewRNIC(eng, p, "nodeA", net)
	rb := rdma.NewRNIC(eng, p, "nodeB", net)
	poolA := mempool.NewPool("rdma-a", 16384, 1024, p.HugepageSize)
	poolB := mempool.NewPool("rdma-b", 16384, 1024, p.HugepageSize)
	tenant := mempool.Intern("t")
	cqA, cqB := rdma.NewCQ(eng), rdma.NewCQ(eng)
	qa, qb := rdma.Connect(ra, rb, "t", nil, nil, cqA, cqB)
	mrA := ra.RegisterMR(poolA)
	mrB := rb.RegisterMR(poolB)
	coreA := sim.NewProcessor(eng, "cliCore", p.HostCoreSpeed)
	coreB := sim.NewProcessor(eng, "srvCore", p.HostCoreSpeed)

	// Static landing slots, one per client per direction.
	slotB := make([]rdma.RemoteBuf, clients) // client -> server
	slotA := make([]rdma.RemoteBuf, clients) // server -> client
	for i := 0; i < clients; i++ {
		ba, _ := poolA.Get("slots")
		bb, _ := poolB.Get("slots")
		slotA[i] = rdma.RemoteBuf{MR: mrA, Buf: ba}
		slotB[i] = rdma.RemoteBuf{MR: mrB, Buf: bb}
		rb.SetWord(fmt.Sprintf("lock-b-%d", i), 0)
		ra.SetWord(fmt.Sprintf("lock-a-%d", i), 0)
	}

	copyCost := func(n int) time.Duration {
		switch variant {
		case OWRCBest:
			return p.MemcpyBase + params.Bytes(p.MemcpyPerByteCached, n)
		case OWRCWorst:
			return p.MemcpyBase + params.Bytes(p.MemcpyPerByteCold, n)
		default:
			return 0 // OWDL writes into the shared pool directly
		}
	}

	// casAcquire spins remote CAS until the lock is taken. Returns after
	// the successful swap's round trip.
	casAcquire := func(pr *sim.Proc, qp *rdma.QP, core *sim.Processor, key string) {
		for {
			got := sim.NewQueue[rdma.CASResult](eng, 1)
			core.Exec(pr, p.VerbsPostCost)
			qp.PostCAS(key, 0, 1, func(res rdma.CASResult) { got.TryPut(res) })
			if res := got.Get(pr); res.Swapped {
				return
			}
			pr.Sleep(time.Microsecond)
		}
	}

	respQ := make([]*sim.Queue[struct{}], clients)
	for i := range respQ {
		respQ[i] = sim.NewQueue[struct{}](eng, 1)
	}

	// Server: poll the landing region; for each arrival do the variant's
	// coordination and echo back with a one-sided write.
	eng.Spawn("server", func(pr *sim.Proc) {
		for {
			coreB.Exec(pr, p.OneSidedPollCost)
			landed := mrB.PollLanded()
			if len(landed) == 0 {
				pr.Sleep(p.OneSidedPollInterval)
				continue
			}
			for _, l := range landed {
				i := int(l.Desc.Seq)
				coreB.Exec(pr, copyCost(l.Bytes))
				if variant == OWDL {
					// Consume, then release the lock locally so the
					// client's next CAS can succeed.
					rb.SetWord(fmt.Sprintf("lock-b-%d", i), 0)
					// Acquire the client-side buffer lock before the
					// reply write.
					casAcquire(pr, qb, coreB, fmt.Sprintf("lock-a-%d", i))
				}
				coreB.Exec(pr, p.VerbsPostCost)
				qb.PostWrite(mempool.Descriptor{Tenant: tenant, Len: l.Bytes, Seq: l.Desc.Seq, Buf: slotB[i].Buf}, slotA[i])
			}
		}
	})
	// Client-side poller: detect replies.
	eng.Spawn("cli-poller", func(pr *sim.Proc) {
		for {
			coreA.Exec(pr, p.OneSidedPollCost)
			landed := mrA.PollLanded()
			if len(landed) == 0 {
				pr.Sleep(p.OneSidedPollInterval)
				continue
			}
			for _, l := range landed {
				i := int(l.Desc.Seq)
				coreA.Exec(pr, copyCost(l.Bytes))
				if variant == OWDL {
					ra.SetWord(fmt.Sprintf("lock-a-%d", i), 0)
				}
				respQ[i].TryPut(struct{}{})
			}
		}
	})

	// Drain send-completion CQEs (bookkeeping only).
	for _, cq := range []*rdma.CQ{cqA, cqB} {
		cq := cq
		eng.Spawn("cq-drain", func(pr *sim.Proc) {
			for {
				cq.Wait(pr)
				cq.Poll(0)
			}
		})
	}

	var count uint64
	var rttSum time.Duration
	for i := 0; i < clients; i++ {
		i := i
		eng.Spawn(fmt.Sprintf("cli-%d", i), func(pr *sim.Proc) {
			for {
				start := pr.Now()
				if variant == OWDL {
					casAcquire(pr, qa, coreA, fmt.Sprintf("lock-b-%d", i))
				}
				coreA.Exec(pr, p.VerbsPostCost)
				qa.PostWrite(mempool.Descriptor{Tenant: tenant, Len: payload, Seq: uint64(i), Buf: slotA[i].Buf}, slotB[i])
				respQ[i].Get(pr)
				count++
				rttSum += pr.Now() - start
			}
		})
	}
	eng.RunUntil(2 * time.Millisecond)
	base, baseRTT := count, rttSum
	start := eng.Now()
	eng.RunUntil(start + dur)
	n := count - base
	if n == 0 {
		return 0, 0
	}
	return float64(n) / (eng.Now() - start).Seconds(), (rttSum - baseRTT) / time.Duration(n)
}

// Fig12 runs the primitive comparison across payloads, sharding the
// (payload, variant) grid across o.Parallel workers.
func Fig12(o Opts) *Fig12Result {
	payloads := o.pick([]int{64, 4096}, []int{64, 512, 1024, 4096})
	dur := o.scale(20*time.Millisecond, 200*time.Millisecond)
	const clients = 4
	type job struct {
		variant Fig12Variant
		payload int
	}
	var jobs []job
	for _, pl := range payloads {
		for _, v := range Fig12Variants {
			jobs = append(jobs, job{variant: v, payload: pl})
		}
	}
	rows := make([]Fig12Row, len(jobs))
	o.forEach(len(jobs), func(i int) {
		j := jobs[i]
		p := params.Default()
		var rps float64
		var lat time.Duration
		if j.variant == TwoSided {
			rps, lat = runNativeEcho(p, o.Seed, p.HostCoreSpeed, j.payload, clients, dur, nil)
		} else {
			rps, lat = runOneSidedEcho(p, o.Seed, j.variant, j.payload, clients, dur)
		}
		rows[i] = Fig12Row{Variant: j.variant, Payload: j.payload, RPS: rps, MeanLat: lat}
	})
	return &Fig12Result{Rows: rows}
}

// Get returns the row for (variant, payload).
func (r *Fig12Result) Get(v Fig12Variant, payload int) (Fig12Row, bool) {
	for _, row := range r.Rows {
		if row.Variant == v && row.Payload == payload {
			return row, true
		}
	}
	return Fig12Row{}, false
}

// RunFig12 adapts Fig12 to the registry.
func RunFig12(o Opts) []*Table {
	res := Fig12(o)
	t := &Table{
		Title:   "Fig. 12 — RDMA primitive selection (echo pair, one core each)",
		Columns: []string{"variant", "payload", "RPS", "mean latency"},
		Note:    "two-sided avoids both the locks of OWDL and the copies of OWRC",
	}
	for _, row := range res.Rows {
		t.Rows = append(t.Rows, []string{string(row.Variant), fmt.Sprintf("%dB", row.Payload), fRPS(row.RPS), fLat(row.MeanLat)})
	}
	return []*Table{t}
}
