package simtest

import (
	"fmt"
	"strings"
	"time"

	"nadino/internal/fabric"
	"nadino/internal/mempool"
)

// Violation is one invariant failure, stamped with the virtual time it was
// detected at.
type Violation struct {
	At        time.Duration
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%v] %s: %s", v.At, v.Invariant, v.Detail)
}

// Invariant is one registered system-wide property. Periodic runs at every
// check tick (the event-boundary approximation: the checker ticker
// interleaves with all simulation events at a fixed virtual period) and
// returns a non-empty detail on violation; Final runs once after the drain,
// when the world must have quiesced, and may report several findings.
// Either hook may be nil.
type Invariant struct {
	Name     string
	Desc     string
	Periodic func(r *Rig, now time.Duration) string
	Final    func(r *Rig) []string
}

// Invariants returns the global registry, in evaluation order. Every fuzz
// run checks all of them; a scenario passes only if none fire.
func Invariants() []Invariant {
	return []Invariant{
		{
			Name: "clock-monotonic",
			Desc: "virtual time never moves backwards between check ticks",
			Periodic: func(r *Rig, now time.Duration) string {
				if now < r.lastNow {
					return fmt.Sprintf("clock moved %v -> %v", r.lastNow, now)
				}
				r.lastNow = now
				return ""
			},
		},
		{
			Name: "busy-accounting",
			Desc: "every processor's busy time is monotone and bounded by wall time",
			Periodic: func(r *Rig, now time.Duration) string {
				for i, c := range r.cores {
					b := c.BusyTime()
					if b > now {
						return fmt.Sprintf("%s busy %v exceeds elapsed %v", c.Name(), b, now)
					}
					if b < r.lastBusy[i] {
						return fmt.Sprintf("%s busy time shrank %v -> %v", c.Name(), r.lastBusy[i], b)
					}
					r.lastBusy[i] = b
				}
				return ""
			},
		},
		{
			Name:     "buffer-conservation",
			Desc:     "pool accounting audits clean; no buffer leaks past quiesce",
			Periodic: checkBuffersPeriodic,
			Final:    checkBuffersFinal,
		},
		{
			Name:     "request-conservation",
			Desc:     "every request answered at most once; unanswered requests bounded by counted drops",
			Periodic: checkRequestsPeriodic,
			Final:    checkRequestsFinal,
		},
		{
			Name:     "qp-legality",
			Desc:     "QP state machine legal; pools repaired and CQs drained at quiesce",
			Periodic: checkQPsPeriodic,
			Final:    checkQPsFinal,
		},
		{
			Name:     "srq-accounting",
			Desc:     "receive rings never overfill and are fully replenished at quiesce",
			Periodic: checkSRQPeriodic,
			Final:    checkSRQFinal,
		},
		{
			Name:  "dwrr-fairness",
			Desc:  "symmetric DWRR tenants complete within bounded skew",
			Final: checkFairness,
		},
		{
			Name:  "telemetry-consistency",
			Desc:  "scraped series are well-timed and reconcile with the ledger",
			Final: checkTelemetry,
		},
		{
			Name:  "trace-consistency",
			Desc:  "tracer totals reconcile with the request ledger",
			Final: checkTraces,
		},
		{
			Name: "ownership-audit",
			Desc: "cross-tenant transfer chains obey the exclusive-ownership rules",
			Final: func(r *Rig) []string {
				return append([]string(nil), r.auditErrs...)
			},
		},
		{
			Name:  "route-consistency",
			Desc:  "gateway fabric: no forwarding loops, healed tables route direct, forwarded messages conserved",
			Final: checkRoutes,
		},
		{
			Name:     "speculation-safety",
			Desc:     "speculated requests complete exactly once at the ingress boundary; losers return their buffers and in-flight state; no cancel touches a recycled generation",
			Periodic: checkSpecPeriodic,
			Final:    checkSpecFinal,
		},
	}
}

// checkBuffersPeriodic audits every node pool's internal accounting and
// cross-checks it against the receive ring it backs.
func checkBuffersPeriodic(r *Rig, now time.Duration) string {
	for _, node := range r.nodes {
		for _, tr := range r.tenants {
			pool := r.c.Pool(node, tr.sc.Name)
			if err := pool.Audit(); err != nil {
				return fmt.Sprintf("tenant %s@%s: %v", tr.sc.Name, node, err)
			}
			if posted := r.c.Engine(node).SRQ(tr.sc.Name).Posted(); pool.InUse() < posted {
				return fmt.Sprintf("tenant %s@%s: %d buffers in use but %d posted to SRQ",
					tr.sc.Name, node, pool.InUse(), posted)
			}
		}
	}
	return ""
}

// checkBuffersFinal requires every buffer home at quiesce: the only live
// allocations in a node pool are the pre-posted receive ring and the
// gateway's landing window. A harness leak (the planted defect) or a data
// plane leak surfaces here as a per-pool surplus.
func checkBuffersFinal(r *Rig) []string {
	var out []string
	for _, node := range r.nodes {
		for _, tr := range r.tenants {
			pool := r.c.Pool(node, tr.sc.Name)
			if err := pool.Audit(); err != nil {
				out = append(out, fmt.Sprintf("tenant %s@%s: %v", tr.sc.Name, node, err))
				continue
			}
			held := r.c.Engine(node).SRQ(tr.sc.Name).Posted()
			if gw := r.c.NodeGateway(node); gw != nil {
				held += gw.SlotsHeld(tr.sc.Name)
			}
			if pool.InUse() != held {
				out = append(out, fmt.Sprintf(
					"tenant %s@%s: %d buffers in use at quiesce, expected only the %d held by the receive ring and gateway window (leak of %d)",
					tr.sc.Name, node, pool.InUse(), held, pool.InUse()-held))
			}
		}
	}
	return out
}

// checkRequestsPeriodic enforces the always-true half of the ledger: no
// request is answered twice.
func checkRequestsPeriodic(r *Rig, now time.Duration) string {
	for _, tr := range r.tenants {
		if tr.dupReplies > 0 {
			return fmt.Sprintf("tenant %s: %d answers past the first", tr.sc.Name, tr.dupReplies)
		}
	}
	return ""
}

// checkRequestsFinal closes the ledger: at quiesce every unanswered
// request is accounted to a drop counter; fault-free scenarios may not
// lose anything at all.
func checkRequestsFinal(r *Rig) []string {
	var out []string
	var inFlight uint64
	for _, tr := range r.tenants {
		if tr.dupReplies > 0 {
			out = append(out, fmt.Sprintf("tenant %s: %d answers past the first", tr.sc.Name, tr.dupReplies))
		}
		inFlight += tr.inFlight()
	}
	if drops := r.drops(); inFlight > drops {
		out = append(out, fmt.Sprintf(
			"%d requests still unanswered at quiesce but the cluster only counted %d drops", inFlight, drops))
	}
	if len(r.sc.Faults) == 0 && inFlight > 0 {
		out = append(out, fmt.Sprintf(
			"fault-free run left %d requests unanswered at quiesce", inFlight))
	}
	return out
}

// checkQPsPeriodic rejects impossible QP states mid-run.
func checkQPsPeriodic(r *Rig, now time.Duration) string {
	for _, node := range r.nodes {
		for _, cp := range r.c.Engine(node).ConnPools() {
			for _, qp := range cp.Conns() {
				if qp.Outstanding() < 0 {
					return fmt.Sprintf("node %s qp%d: negative outstanding %d",
						node, qp.ID(), qp.Outstanding())
				}
			}
		}
	}
	return ""
}

// checkQPsFinal requires full recovery: the keepers must have repaired
// every errored QP, drained every CQ, and emptied the scheduler by quiesce.
func checkQPsFinal(r *Rig) []string {
	var out []string
	for _, node := range r.nodes {
		e := r.c.Engine(node)
		for _, cp := range e.ConnPools() {
			if n := cp.ErroredCount(); n > 0 {
				out = append(out, fmt.Sprintf("node %s: %d QPs still errored at quiesce", node, n))
			}
			for _, qp := range cp.Conns() {
				if qp.Outstanding() != 0 {
					out = append(out, fmt.Sprintf("node %s qp%d: %d WRs outstanding at quiesce",
						node, qp.ID(), qp.Outstanding()))
				}
			}
		}
		if n := e.CQ().Len(); n > 0 {
			out = append(out, fmt.Sprintf("node %s: %d CQEs unpolled at quiesce", node, n))
		}
		if n := e.SchedPending(); n > 0 {
			out = append(out, fmt.Sprintf("node %s: %d descriptors stuck in scheduler", node, n))
		}
		gw := r.c.NodeGateway(node)
		if gw == nil {
			continue
		}
		for _, cp := range gw.Links() {
			if n := cp.ErroredCount(); n > 0 {
				out = append(out, fmt.Sprintf("gateway %s: %d QPs still errored at quiesce", node, n))
			}
			for _, qp := range cp.Conns() {
				if qp.Outstanding() != 0 {
					out = append(out, fmt.Sprintf("gateway %s qp%d: %d WRs outstanding at quiesce",
						node, qp.ID(), qp.Outstanding()))
				}
			}
		}
		if n := gw.CQ().Len(); n > 0 {
			out = append(out, fmt.Sprintf("gateway %s: %d CQEs unpolled at quiesce", node, n))
		}
	}
	return out
}

// checkRoutes is the gateway-fabric invariant (route-consistency): the
// forwarded-message ledger closes, a healed fabric converges back to direct
// next hops, and hop-by-hop walks never loop. (Landing pools on transit
// nodes are node pools, so buffer-conservation brings them home.)
func checkRoutes(r *Rig) []string {
	if !r.sc.Gateways {
		return nil
	}
	var out []string
	net := r.c.Net()

	// Conservation: transit re-entries are internal to the tier, so the
	// descriptors accepted from engines equal deliveries plus drops, with
	// nothing queued or on the wire at quiesce.
	var in, delivered, dropped uint64
	for _, node := range r.nodes {
		gw := r.c.NodeGateway(node)
		s := gw.Stats()
		in += s.AcceptIn
		delivered += s.Delivered
		dropped += s.Dropped
		if n := gw.Pending(); n > 0 {
			out = append(out, fmt.Sprintf("gateway %s: %d forwards still queued at quiesce", node, n))
		}
		if n := gw.InflightWrites(); n > 0 {
			out = append(out, fmt.Sprintf("gateway %s: %d writes still in flight at quiesce", node, n))
		}
	}
	if in != delivered+dropped {
		out = append(out, fmt.Sprintf(
			"forwarded-message conservation broken: acceptIn=%d != delivered=%d + dropped=%d",
			in, delivered, dropped))
	}

	known := make(map[fabric.NodeID]bool, len(r.nodes))
	healed := true
	for i, a := range r.nodes {
		known[fabric.NodeID(a)] = true
		if net.Down(fabric.NodeID(a)) {
			healed = false
		}
		for _, b := range r.nodes[i+1:] {
			if net.LinkDown(fabric.NodeID(a), fabric.NodeID(b)) || net.LinkDown(fabric.NodeID(b), fabric.NodeID(a)) {
				healed = false
			}
		}
	}

	// Every route-table function entry must point at a known node; when the
	// fabric has healed (all faults expire before the drain ends, and the
	// keeper refreshes every GwFailoverInterval) it must also be live and
	// every next hop must be direct again.
	for _, name := range r.nodes {
		routes := r.c.NodeGateway(name).Routes()
		for _, fn := range routes.Functions() {
			node, ok := routes.NodeOf(mempool.Intern(fn))
			if !ok || !known[node] {
				out = append(out, fmt.Sprintf("gateway %s: function %s routed to unknown node %q",
					name, fn, node))
				continue
			}
			if healed && net.Down(node) {
				out = append(out, fmt.Sprintf("gateway %s: function %s routed to down node %s after heal",
					name, fn, node))
			}
		}
		if !healed {
			continue
		}
		for _, peer := range r.nodes {
			if peer == name {
				continue
			}
			if hop := routes.NextHop(fabric.NodeID(peer)); hop != fabric.NodeID(peer) {
				out = append(out, fmt.Sprintf(
					"gateway %s: next hop for %s still detours via %s after heal", name, peer, hop))
			}
		}
	}

	// No forwarding loops: walking next hops toward any destination reaches
	// it without revisiting a node, whatever state the tables are in.
	for _, src := range r.nodes {
		for _, dst := range r.nodes {
			if src == dst {
				continue
			}
			cur := fabric.NodeID(src)
			visited := map[fabric.NodeID]bool{cur: true}
			for cur != fabric.NodeID(dst) {
				hop := r.c.NodeGateway(string(cur)).Routes().NextHop(fabric.NodeID(dst))
				if visited[hop] {
					out = append(out, fmt.Sprintf("forwarding loop toward %s: gateway %s bounces back to %s",
						dst, cur, hop))
					break
				}
				if !known[hop] {
					out = append(out, fmt.Sprintf("gateway %s: next hop for %s is unknown node %q",
						cur, dst, hop))
					break
				}
				visited[hop] = true
				cur = hop
			}
		}
	}
	return out
}

// checkSpecPeriodic enforces the always-true half of the speculation ledger
// on the ingress controller: a group wins at most once, arm resolutions
// never exceed arms fired, and clients never see more answers than the
// controller recorded winners.
func checkSpecPeriodic(r *Rig, now time.Duration) string {
	sp := r.c.Gateway().Spec()
	if sp == nil {
		return ""
	}
	st := sp.Stats()
	if st.Wins() > st.Launched {
		return fmt.Sprintf("%d wins for %d launches: %+v", st.Wins(), st.Launched, st)
	}
	if st.Cancels+st.Kills+st.Wins() > st.Arms {
		return fmt.Sprintf("%d resolutions exceed %d arms fired: %+v", st.Cancels+st.Kills+st.Wins(), st.Arms, st)
	}
	if done := r.completed(); done > st.Wins() {
		return fmt.Sprintf("clients saw %d answers but the controller recorded %d winners", done, st.Wins())
	}
	return ""
}

// checkSpecFinal closes the speculation ledger at quiesce. Every submitted
// request launched one group, every winner reached its client, and no
// hedge timer is left armed; the full arm ledger (every arm won, was
// suppressed at the boundary, or was killed mid-plane) closes with equality
// only when no faults or planted defects could strand arms inside the
// plane — mirroring request-conservation, faulted runs get the <= bound.
// Loser buffer return is covered by buffer-conservation, and generation
// safety by the pool's ownership audit: a cancel that touched a recycled
// buffer would fire both.
func checkSpecFinal(r *Rig) []string {
	sp := r.c.Gateway().Spec()
	if sp == nil {
		return nil
	}
	var out []string
	st := sp.Stats()
	var issued uint64
	for _, tr := range r.tenants {
		issued += tr.issued
	}
	if st.Launched != issued {
		out = append(out, fmt.Sprintf("%d requests submitted but the ingress launched %d groups", issued, st.Launched))
	}
	if done := r.completed(); done != st.Wins() {
		out = append(out, fmt.Sprintf("clients saw %d answers at quiesce but the controller recorded %d winners",
			done, st.Wins()))
	}
	if n := sp.PendingHedges(); n != 0 {
		out = append(out, fmt.Sprintf("%d hedge timers still armed at quiesce", n))
	}
	resolved := st.Wins() + st.Cancels + st.Kills
	if resolved > st.Arms {
		out = append(out, fmt.Sprintf("%d arm resolutions exceed %d arms fired: %+v", resolved, st.Arms, st))
	}
	if len(r.sc.Faults) > 0 || r.sc.Defect != "" {
		return out
	}
	if st.Launched != st.Wins() {
		out = append(out, fmt.Sprintf("fault-free run launched %d groups but only %d won", st.Launched, st.Wins()))
	}
	if resolved != st.Arms {
		out = append(out, fmt.Sprintf(
			"fault-free run fired %d arms but resolved only %d (wins=%d cancels=%d kills=%d)",
			st.Arms, resolved, st.Wins(), st.Cancels, st.Kills))
	}
	return out
}

// checkSRQPeriodic bounds the receive rings: the keeper may never post past
// its per-tenant target.
func checkSRQPeriodic(r *Rig, now time.Duration) string {
	for _, node := range r.nodes {
		e := r.c.Engine(node)
		for _, tr := range r.tenants {
			if p := e.SRQ(tr.sc.Name).Posted(); p > e.InitialRQ() {
				return fmt.Sprintf("node %s tenant %s: %d posted > ring target %d",
					node, tr.sc.Name, p, e.InitialRQ())
			}
		}
	}
	return ""
}

// checkSRQFinal requires the keeper to have fully replenished every ring.
func checkSRQFinal(r *Rig) []string {
	var out []string
	for _, node := range r.nodes {
		e := r.c.Engine(node)
		for _, tr := range r.tenants {
			if p := e.SRQ(tr.sc.Name).Posted(); p != e.InitialRQ() {
				out = append(out, fmt.Sprintf("node %s tenant %s: ring at %d/%d after drain",
					node, tr.sc.Name, p, e.InitialRQ()))
			}
		}
	}
	return out
}

// fairnessFloor is the minimum share of the per-tenant mean any symmetric
// DWRR tenant must reach inside the load window. DWRR's deficit bound is
// much tighter than this; the slack absorbs warmup and window edges.
const fairnessFloor = 0.55

// fairnessMinTotal gates the check on enough completions for the bound to
// be meaningful.
const fairnessMinTotal = 300

// checkFairness bounds goodput skew for fairness-eligible scenarios:
// identical closed-loop tenants under the engines' DWRR with no faults
// must split the window's completions near-evenly.
func checkFairness(r *Rig) []string {
	if !r.sc.Symmetric() || len(r.sc.Faults) > 0 || r.sc.Defect != "" {
		return nil
	}
	var total uint64
	min, max := ^uint64(0), uint64(0)
	for _, tr := range r.tenants {
		c := tr.windowCompleted
		total += c
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if total < fairnessMinTotal {
		return nil
	}
	mean := float64(total) / float64(len(r.tenants))
	if float64(min) < fairnessFloor*mean {
		return []string{fmt.Sprintf(
			"symmetric DWRR tenants skewed: min %d, max %d, mean %.1f over %d tenants",
			min, max, mean, len(r.tenants))}
	}
	return nil
}

// checkTelemetry validates the scraper output against the clock and the
// ledger: samples land at exact period multiples in strict order, windowed
// rates are non-negative, pool gauges stay inside the pool, and the
// completion-rate series integrates back to at most the ledger's count.
func checkTelemetry(r *Rig) []string {
	var out []string
	var rateSum float64
	for _, s := range r.scraper.Series() {
		last := time.Duration(0)
		for i, pt := range s.Points {
			if pt.T <= last && i > 0 {
				out = append(out, fmt.Sprintf("series %s: non-increasing timestamp %v after %v",
					s.Name, pt.T, last))
				break
			}
			if pt.T%r.scraper.Period() != 0 {
				out = append(out, fmt.Sprintf("series %s: sample at %v off the %v grid",
					s.Name, pt.T, r.scraper.Period()))
				break
			}
			last = pt.T
			switch {
			case strings.HasPrefix(s.Name, "fuzz.completed"):
				if pt.V < 0 {
					out = append(out, fmt.Sprintf("series %s: negative rate %g at %v", s.Name, pt.V, pt.T))
				}
				rateSum += pt.V * r.scraper.Period().Seconds()
			case strings.HasPrefix(s.Name, "fuzz.pool_in_use"):
				if pt.V < 0 || pt.V > float64(r.sc.PoolBuffers) {
					out = append(out, fmt.Sprintf("series %s: gauge %g outside [0,%d] at %v",
						s.Name, pt.V, r.sc.PoolBuffers, pt.T))
				}
			case strings.HasPrefix(s.Name, "fuzz.worker_busy"):
				if pt.V < 0 || pt.V > 1+1e-9 {
					out = append(out, fmt.Sprintf("series %s: utilization %g outside [0,1] at %v",
						s.Name, pt.V, pt.T))
				}
			}
		}
	}
	if completed := r.completed(); rateSum > float64(completed)+0.5 {
		out = append(out, fmt.Sprintf(
			"completion-rate series integrate to %.1f but ledger completed only %d",
			rateSum, completed))
	}
	return out
}

// checkTraces reconciles the cluster's tracer with the request ledger:
// every finished request trace was answered, every unfinished one is still
// unanswered, and nothing was dropped (the tracer runs unlimited).
func checkTraces(r *Rig) []string {
	rep := r.tracer.Report()
	var inFlight uint64
	for _, tr := range r.tenants {
		inFlight += tr.inFlight()
	}
	var out []string
	if completed := r.completed(); uint64(rep.Requests) != completed {
		out = append(out, fmt.Sprintf("tracer finished %d requests but ledger completed %d",
			rep.Requests, completed))
	}
	if uint64(rep.Unfinished) != inFlight {
		out = append(out, fmt.Sprintf("tracer has %d unfinished requests but ledger has %d unanswered",
			rep.Unfinished, inFlight))
	}
	if rep.Dropped != 0 {
		out = append(out, fmt.Sprintf("tracer dropped %d requests with no limit set", rep.Dropped))
	}
	return out
}

// completed sums answered requests over every tenant.
func (r *Rig) completed() uint64 {
	var n uint64
	for _, tr := range r.tenants {
		n += tr.completed
	}
	return n
}
