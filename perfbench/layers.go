package main

import (
	"runtime"
	"time"

	"nadino/internal/speculate"
	"nadino/internal/trace"
)

// counters is one reading of every public counter the benchmark reports,
// taken at a window boundary; the per-layer metrics are deltas of two.
type counters struct {
	fired  uint64 // sim: engine events fired
	allocs uint64 // runtime.MemStats.Mallocs

	completed, crossTenant, specFnKills uint64 // core

	ingServed, ingDropped uint64 // ingress

	dneTx, dneRx, dneDrops, dneSendErrors, dneRetried, dneRetryDropped, dneSpecDrops uint64
	dneBusy                                                                          time.Duration

	rdmaOps, rdmaRNR, mttHits, mttMisses uint64

	gwForwarded, gwTransit, gwRetries, gwDropped uint64
	gwBusy                                       time.Duration
	gateways                                     int

	fabricDrops uint64

	spec speculate.Stats
}

func (b *testbed) read() counters {
	c := b.c
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k := counters{
		fired:       c.Eng.Fired(),
		allocs:      ms.Mallocs,
		completed:   c.Completed.Total(),
		crossTenant: c.CrossTenantCopies(),
		specFnKills: c.SpecFnKills(),
		ingServed:   c.Gateway().Served(),
		ingDropped:  c.Gateway().Dropped(),
		fabricDrops: c.Net().Drops(),
	}
	for _, n := range b.nodes {
		e := c.Engine(n)
		tx, rx, noRoute, noPort, sendErr := e.Stats()
		k.dneTx += tx
		k.dneRx += rx
		k.dneDrops += noRoute + noPort
		k.dneSendErrors += sendErr
		retried, dropped := e.RetryStats()
		k.dneRetried += retried
		k.dneRetryDropped += dropped
		k.dneSpecDrops += e.SpecDrops()
		k.dneBusy += e.WorkerCore().BusyTime()
		// The node gateway posts through the same DPU RNIC as the engine.
		sends, writes, reads, _, rnr := e.RNIC().Stats()
		k.rdmaOps += sends + writes + reads
		k.rdmaRNR += rnr
		k.mttHits += e.RNIC().CacheHits()
		k.mttMisses += e.RNIC().CacheMisses()
	}
	for _, g := range c.Gateways() {
		s := g.Stats()
		k.gwForwarded += s.Forwarded
		k.gwTransit += s.Transit
		k.gwRetries += s.Retries
		k.gwDropped += s.Dropped
		k.gwBusy += g.BusyTime()
		k.gateways++
	}
	if sp := c.Gateway().Spec(); sp != nil {
		k.spec = sp.Stats()
	}
	return k
}

// sub returns the counter deltas k - o (busy times included).
func (k counters) sub(o counters) counters {
	s := o.spec
	return counters{
		fired:           k.fired - o.fired,
		allocs:          k.allocs - o.allocs,
		completed:       k.completed - o.completed,
		crossTenant:     k.crossTenant - o.crossTenant,
		specFnKills:     k.specFnKills - o.specFnKills,
		ingServed:       k.ingServed - o.ingServed,
		ingDropped:      k.ingDropped - o.ingDropped,
		dneTx:           k.dneTx - o.dneTx,
		dneRx:           k.dneRx - o.dneRx,
		dneDrops:        k.dneDrops - o.dneDrops,
		dneSendErrors:   k.dneSendErrors - o.dneSendErrors,
		dneRetried:      k.dneRetried - o.dneRetried,
		dneRetryDropped: k.dneRetryDropped - o.dneRetryDropped,
		dneSpecDrops:    k.dneSpecDrops - o.dneSpecDrops,
		dneBusy:         k.dneBusy - o.dneBusy,
		rdmaOps:         k.rdmaOps - o.rdmaOps,
		rdmaRNR:         k.rdmaRNR - o.rdmaRNR,
		mttHits:         k.mttHits - o.mttHits,
		mttMisses:       k.mttMisses - o.mttMisses,
		gwForwarded:     k.gwForwarded - o.gwForwarded,
		gwTransit:       k.gwTransit - o.gwTransit,
		gwRetries:       k.gwRetries - o.gwRetries,
		gwDropped:       k.gwDropped - o.gwDropped,
		gwBusy:          k.gwBusy - o.gwBusy,
		gateways:        k.gateways,
		fabricDrops:     k.fabricDrops - o.fabricDrops,
		spec: speculate.Stats{
			Launched:   k.spec.Launched - s.Launched,
			Arms:       k.spec.Arms - s.Arms,
			Clones:     k.spec.Clones - s.Clones,
			Hedges:     k.spec.Hedges - s.Hedges,
			WinPrimary: k.spec.WinPrimary - s.WinPrimary,
			WinClone:   k.spec.WinClone - s.WinClone,
			WinHedge:   k.spec.WinHedge - s.WinHedge,
			Cancels:    k.spec.Cancels - s.Cancels,
			Kills:      k.spec.Kills - s.Kills,
			LateFires:  k.spec.LateFires - s.LateFires,
		},
	}
}

// model lists the deltas that describe the simulated system rather than
// the simulator, in a fixed order, for sim_digest. Engine internals (events
// fired, Procs) and host figures stay out, so a change that only makes the
// simulator faster keeps the digest.
func (k counters) model() []uint64 {
	s := k.spec
	return []uint64{
		k.completed, k.crossTenant, k.specFnKills, k.ingServed, k.ingDropped,
		k.dneTx, k.dneRx, k.dneDrops, k.dneSendErrors, k.dneRetried, k.dneRetryDropped, k.dneSpecDrops,
		uint64(k.dneBusy), k.rdmaOps, k.rdmaRNR, k.mttHits, k.mttMisses,
		k.gwForwarded, k.gwTransit, k.gwRetries, k.gwDropped, uint64(k.gwBusy), k.fabricDrops,
		s.Launched, s.Arms, s.Clones, s.Hedges, s.WinPrimary, s.WinClone, s.WinHedge, s.Cancels, s.Kills, s.LateFires,
	}
}

// drops sums every counter through which a layer admits losing a request.
func (k counters) drops() uint64 {
	return k.ingDropped + k.dneDrops + k.dneSendErrors + k.dneRetryDropped + k.gwDropped + k.fabricDrops
}

// layerMetrics reports the traced pass: counters over the whole window,
// vt.* from the tracer's head sample, host.pct.* from the traced half's
// profile.
func (r *result) layerMetrics(b *testbed, st setUpTimes, m *measured) {
	k, n, virt := m.delta, float64(m.completions), r.window.Seconds()
	var wall time.Duration
	for _, h := range m.host {
		wall += h
	}
	// half is host ns per request over parts [from, to) at reference speed.
	half := func(from, to int) float64 {
		var h time.Duration
		var c uint64
		for i := from; i < to; i++ {
			h += m.host[i]
			c += m.done[i]
		}
		return float64(h.Nanoseconds()) / float64(c) / ((m.slow[from] + m.slow[to]) / 2)
	}
	rep := m.tracer.Report()
	r.check(rep.Requests > 0, "the tracer finished no request")
	vt := func(stage string) {
		v := 0.0
		for _, s := range rep.Stages {
			if s.Stage == stage {
				v = us(s.PerRequest(rep.Requests))
			}
		}
		r.add("vt."+stage+"_us", v, "us")
	}
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	pct := func(layers ...string) {
		for _, l := range layers {
			r.add("host.pct."+l, m.shares[l], "%")
		}
	}
	count := func(name string, v uint64) { r.add(name, float64(v), "count") }

	r.add("sim.events_per_req", float64(k.fired)/n, "count")
	r.add("sim.events_per_s", float64(k.fired)/wall.Seconds(), "1/s")
	count("sim.pending_end", uint64(m.pending))
	count("sim.procs", uint64(m.procs))
	r.add("sim.host_ns_per_virt_ms", float64(wall.Nanoseconds())/(virt*1e3), "ns")
	r.add("host.slowness", (m.slow[0]+m.slow[parts/2]+m.slow[parts])/3, "ratio")
	pct("sim", "runtime_sched", "runtime_gc", "runtime_malloc", "runtime_copy")

	pct("core")
	count("core.completed", k.completed)
	count("core.cross_tenant_copies", k.crossTenant)
	count("core.spec_fn_kills", k.specFnKills)
	r.add("core.net_cpu_cores", m.netCores, "cores")

	pct("ingress")
	count("ingress.served", k.ingServed)
	count("ingress.dropped", k.ingDropped)
	count("ingress.queue_end", uint64(m.queueEnd))
	vt(trace.StageIngressQueue)

	pct("dne")
	count("dne.tx", k.dneTx)
	count("dne.rx", k.dneRx)
	count("dne.drops", k.dneDrops)
	count("dne.send_errors", k.dneSendErrors)
	count("dne.retried", k.dneRetried)
	count("dne.spec_drops", k.dneSpecDrops)
	r.add("dne.worker_busy_frac", frac(k.dneBusy.Seconds(), virt*float64(len(b.nodes))), "ratio")
	vt(trace.StageDNESched)
	vt(trace.StageDNETx)
	vt(trace.StageDNERx)

	pct("rdma")
	count("rdma.ops", k.rdmaOps)
	count("rdma.rnr_retries", k.rdmaRNR)
	r.add("rdma.mtt_miss_ratio", frac(float64(k.mttMisses), float64(k.mttHits+k.mttMisses)), "ratio")
	vt(trace.StageRDMA)
	vt(trace.StageRDMACQ)

	pct("mempool", "ring", "dpu", "ipc")

	pct("gateway", "fabric")
	count("gw.forwarded", k.gwForwarded)
	count("gw.transit", k.gwTransit)
	count("gw.retries", k.gwRetries)
	count("gw.dropped", k.gwDropped)
	r.add("gw.busy_frac", frac(k.gwBusy.Seconds(), virt*float64(k.gateways)), "ratio")
	count("fabric.drops", k.fabricDrops)
	vt(trace.StageGwQueue)

	pct("speculate")
	r.add("spec.arms_per_req", frac(float64(k.spec.Arms), float64(k.spec.Launched)), "ratio")
	r.add("spec.useful_frac", frac(float64(k.spec.Wins()), float64(k.spec.Arms)), "ratio")
	count("spec.late_fires", k.spec.LateFires)

	vt(trace.StageFnQueue)
	vt(trace.StageFnExec)

	pct("trace", "flightrec")
	untraced := half(0, parts/2)
	r.add("trace.overhead_pct", 100*(half(parts/2, parts)-untraced)/untraced, "%")
	count("trace.samples", uint64(rep.Requests))

	pct("metrics", "bench", "other")
	r.add("bench.build_s", median(st.build), "s")
	r.add("bench.ready_s", median(st.ready), "s")
	r.add("bench.submit_ns", float64(b.submitHost.Nanoseconds())/float64(b.submitCalls), "ns")
}
