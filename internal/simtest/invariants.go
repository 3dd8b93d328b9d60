package simtest

import (
	"fmt"
	"strings"
	"time"

	"nadino/internal/dne"
	"nadino/internal/fabric"
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
					b := c.proc.BusyTime()
					if b > now {
						return fmt.Sprintf("%s busy %v exceeds elapsed %v", c.label, b, now)
					}
					if b < r.lastBusy[i] {
						return fmt.Sprintf("%s busy time shrank %v -> %v", c.label, r.lastBusy[i], b)
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
			Desc:     "issued = completed + in-flight; in-flight bounded by engine drops",
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

// checkBuffersPeriodic audits every tenant pool's internal accounting and
// cross-checks it against the receive ring it backs.
func checkBuffersPeriodic(r *Rig, now time.Duration) string {
	for _, tr := range r.tenants {
		cli, srv := r.nodes[tr.sc.CliNode], r.nodes[tr.sc.SrvNode]
		for _, side := range []struct {
			label string
			pool  interface {
				Audit() error
				InUse() int
			}
			posted int
		}{
			{"cli@" + string(cli.name), tr.cliPool, cli.eng.SRQ(tr.sc.Name).Posted()},
			{"srv@" + string(srv.name), tr.srvPool, srv.eng.SRQ(tr.sc.Name).Posted()},
		} {
			if err := side.pool.Audit(); err != nil {
				return fmt.Sprintf("tenant %s %s: %v", tr.sc.Name, side.label, err)
			}
			if side.pool.InUse() < side.posted {
				return fmt.Sprintf("tenant %s %s: %d buffers in use but %d posted to SRQ",
					tr.sc.Name, side.label, side.pool.InUse(), side.posted)
			}
		}
	}
	return ""
}

// checkBuffersFinal requires every buffer home at quiesce: the only live
// allocations are the pre-posted receive rings. A harness leak (the planted
// defect) or an engine leak surfaces here as a per-pool surplus.
func checkBuffersFinal(r *Rig) []string {
	var out []string
	for _, tr := range r.tenants {
		cli, srv := r.nodes[tr.sc.CliNode], r.nodes[tr.sc.SrvNode]
		for _, side := range []struct {
			label  string
			inUse  int
			posted int
			err    error
		}{
			{"cli@" + string(cli.name), tr.cliPool.InUse(),
				cli.eng.SRQ(tr.sc.Name).Posted() + gwSlots(cli, tr.sc.Name), tr.cliPool.Audit()},
			{"srv@" + string(srv.name), tr.srvPool.InUse(),
				srv.eng.SRQ(tr.sc.Name).Posted() + gwSlots(srv, tr.sc.Name), tr.srvPool.Audit()},
		} {
			if side.err != nil {
				out = append(out, fmt.Sprintf("tenant %s %s: %v", tr.sc.Name, side.label, side.err))
				continue
			}
			if side.inUse != side.posted {
				out = append(out, fmt.Sprintf(
					"tenant %s %s: %d buffers in use at quiesce, expected only the %d held by the receive ring and gateway window (leak of %d)",
					tr.sc.Name, side.label, side.inUse, side.posted, side.inUse-side.posted))
			}
		}
	}
	return out
}

// checkRequestsPeriodic enforces the always-true half of the ledger.
func checkRequestsPeriodic(r *Rig, now time.Duration) string {
	for _, tr := range r.tenants {
		if tr.completed > tr.issued {
			return fmt.Sprintf("tenant %s: completed %d > issued %d",
				tr.sc.Name, tr.completed, tr.issued)
		}
		if tr.issued != tr.completed+uint64(tr.inFlight()) {
			return fmt.Sprintf("tenant %s: issued %d != completed %d + in-flight %d",
				tr.sc.Name, tr.issued, tr.completed, tr.inFlight())
		}
	}
	return ""
}

// checkRequestsFinal closes the ledger: at quiesce every issued request is
// either completed or accounted to an engine drop counter; fault-free
// scenarios may not lose anything at all.
func checkRequestsFinal(r *Rig) []string {
	var out []string
	var drops uint64
	for _, nr := range r.nodes {
		_, _, noRoute, noPort, _ := nr.eng.Stats()
		_, retryDropped := nr.eng.RetryStats()
		drops += noRoute + noPort + retryDropped
		if nr.gw != nil {
			drops += nr.gw.Stats().Dropped
		}
	}
	var inFlight uint64
	for _, tr := range r.tenants {
		if tr.issued != tr.completed+uint64(tr.inFlight()) {
			out = append(out, fmt.Sprintf("tenant %s: issued %d != completed %d + in-flight %d",
				tr.sc.Name, tr.issued, tr.completed, tr.inFlight()))
		}
		inFlight += uint64(tr.inFlight())
	}
	if inFlight > drops {
		out = append(out, fmt.Sprintf(
			"%d requests still in flight at quiesce but engines only dropped %d", inFlight, drops))
	}
	if len(r.sc.Faults) == 0 && inFlight > 0 {
		out = append(out, fmt.Sprintf(
			"fault-free run left %d requests unfinished at quiesce", inFlight))
	}
	return out
}

// checkQPsPeriodic rejects impossible QP states mid-run.
func checkQPsPeriodic(r *Rig, now time.Duration) string {
	for _, nr := range r.nodes {
		for _, cp := range nr.eng.ConnPools() {
			for _, qp := range cp.Conns() {
				if qp.Outstanding() < 0 {
					return fmt.Sprintf("node %s qp%d: negative outstanding %d",
						nr.name, qp.ID(), qp.Outstanding())
				}
			}
		}
	}
	return ""
}

// checkQPsFinal requires full recovery: the keeper must have repaired every
// errored QP, drained every CQ, and emptied the scheduler by quiesce.
func checkQPsFinal(r *Rig) []string {
	var out []string
	for _, nr := range r.nodes {
		for _, cp := range nr.eng.ConnPools() {
			if n := cp.ErroredCount(); n > 0 {
				out = append(out, fmt.Sprintf("node %s: %d QPs still errored at quiesce", nr.name, n))
			}
			for _, qp := range cp.Conns() {
				if qp.Outstanding() != 0 {
					out = append(out, fmt.Sprintf("node %s qp%d: %d WRs outstanding at quiesce",
						nr.name, qp.ID(), qp.Outstanding()))
				}
			}
		}
		if n := nr.eng.CQ().Len(); n > 0 {
			out = append(out, fmt.Sprintf("node %s: %d CQEs unpolled at quiesce", nr.name, n))
		}
		if n := nr.eng.SchedPending(); n > 0 {
			out = append(out, fmt.Sprintf("node %s: %d descriptors stuck in scheduler", nr.name, n))
		}
		if nr.gw == nil {
			continue
		}
		for _, cp := range nr.gw.Links() {
			if n := cp.ErroredCount(); n > 0 {
				out = append(out, fmt.Sprintf("gateway %s: %d QPs still errored at quiesce", nr.name, n))
			}
			for _, qp := range cp.Conns() {
				if qp.Outstanding() != 0 {
					out = append(out, fmt.Sprintf("gateway %s qp%d: %d WRs outstanding at quiesce",
						nr.name, qp.ID(), qp.Outstanding()))
				}
			}
		}
		if n := nr.gw.CQ().Len(); n > 0 {
			out = append(out, fmt.Sprintf("gateway %s: %d CQEs unpolled at quiesce", nr.name, n))
		}
	}
	return out
}

// gwSlots is the landing-window share the node's gateway holds from the
// tenant's pool (zero when the scenario runs without the gateway tier).
func gwSlots(nr *nodeRig, tenant string) int {
	if nr.gw == nil {
		return 0
	}
	return nr.gw.SlotsHeld(tenant)
}

// checkRoutes is the gateway-fabric invariant (route-consistency): the
// forwarded-message ledger closes, a healed fabric converges back to direct
// next hops, hop-by-hop walks never loop, and relay landing pools come home.
func checkRoutes(r *Rig) []string {
	if !r.sc.Gateways {
		return nil
	}
	var out []string

	// Conservation: transit re-entries are internal to the tier, so the
	// descriptors accepted from engines equal deliveries plus drops, with
	// nothing queued or on the wire at quiesce.
	var in, delivered, dropped uint64
	for _, nr := range r.nodes {
		s := nr.gw.Stats()
		in += s.AcceptIn
		delivered += s.Delivered
		dropped += s.Dropped
		if n := nr.gw.Pending(); n > 0 {
			out = append(out, fmt.Sprintf("gateway %s: %d forwards still queued at quiesce", nr.name, n))
		}
		if n := nr.gw.InflightWrites(); n > 0 {
			out = append(out, fmt.Sprintf("gateway %s: %d writes still in flight at quiesce", nr.name, n))
		}
	}
	if in != delivered+dropped {
		out = append(out, fmt.Sprintf(
			"forwarded-message conservation broken: acceptIn=%d != delivered=%d + dropped=%d",
			in, delivered, dropped))
	}

	byName := make(map[fabric.NodeID]*nodeRig, len(r.nodes))
	healed := true
	for i, a := range r.nodes {
		byName[a.name] = a
		if r.net.Down(a.name) {
			healed = false
		}
		for _, b := range r.nodes[i+1:] {
			if r.net.LinkDown(a.name, b.name) || r.net.LinkDown(b.name, a.name) {
				healed = false
			}
		}
	}

	// Every route-table function entry must point at a known node; when the
	// fabric has healed (all faults expire before the drain ends, and the
	// keeper refreshes every GwFailoverInterval) it must also be live and
	// every next hop must be direct again.
	for _, nr := range r.nodes {
		for _, fn := range nr.gw.Routes().Functions() {
			node, ok := nr.gw.Routes().NodeOf(fn)
			if !ok || byName[node] == nil {
				out = append(out, fmt.Sprintf("gateway %s: function %s routed to unknown node %q",
					nr.name, fn, node))
				continue
			}
			if healed && r.net.Down(node) {
				out = append(out, fmt.Sprintf("gateway %s: function %s routed to down node %s after heal",
					nr.name, fn, node))
			}
		}
		if !healed {
			continue
		}
		for _, peer := range r.nodes {
			if peer == nr {
				continue
			}
			if hop := nr.gw.Routes().NextHop(peer.name); hop != peer.name {
				out = append(out, fmt.Sprintf(
					"gateway %s: next hop for %s still detours via %s after heal", nr.name, peer.name, hop))
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
			cur := src
			visited := map[fabric.NodeID]bool{src.name: true}
			for cur.name != dst.name {
				hop := cur.gw.Routes().NextHop(dst.name)
				if visited[hop] {
					out = append(out, fmt.Sprintf("forwarding loop toward %s: gateway %s bounces back to %s",
						dst.name, cur.name, hop))
					break
				}
				next := byName[hop]
				if next == nil {
					out = append(out, fmt.Sprintf("gateway %s: next hop for %s is unknown node %q",
						cur.name, dst.name, hop))
					break
				}
				visited[hop] = true
				cur = next
			}
		}
	}

	// Relay landing pools (non-resident nodes) hold exactly the gateway's
	// window slots at quiesce — a transit leg that never came home is a leak.
	for _, tr := range r.tenants {
		for _, rel := range tr.relays {
			if err := rel.pool.Audit(); err != nil {
				out = append(out, fmt.Sprintf("tenant %s relay pool on %s: %v", tr.sc.Name, rel.node, err))
				continue
			}
			if held := rel.gw.SlotsHeld(tr.sc.Name); rel.pool.InUse() != held {
				out = append(out, fmt.Sprintf(
					"tenant %s relay pool on %s: %d buffers in use but the gateway holds only %d slots (leak of %d)",
					tr.sc.Name, rel.node, rel.pool.InUse(), held, rel.pool.InUse()-held))
			}
		}
	}
	return out
}

// checkSpecPeriodic enforces the always-true half of the speculation ledger
// on every speculative tenant: a group wins at most once, arm resolutions
// never exceed arms fired, and every win the controller records was observed
// exactly once at the rig's ingress boundary.
func checkSpecPeriodic(r *Rig, now time.Duration) string {
	for _, tr := range r.tenants {
		if tr.spec == nil {
			continue
		}
		st := tr.spec.Stats()
		if st.Wins() > st.Launched {
			return fmt.Sprintf("tenant %s: %d wins for %d launches: %+v",
				tr.sc.Name, st.Wins(), st.Launched, st)
		}
		if st.Cancels+st.Kills+st.Wins() > st.Arms {
			return fmt.Sprintf("tenant %s: %d resolutions exceed %d arms fired: %+v",
				tr.sc.Name, st.Cancels+st.Kills+st.Wins(), st.Arms, st)
		}
		if tr.specWinsSeen != st.Wins() {
			return fmt.Sprintf("tenant %s: boundary observed %d winners but controller recorded %d",
				tr.sc.Name, tr.specWinsSeen, st.Wins())
		}
	}
	return ""
}

// checkSpecFinal closes the speculation ledger at quiesce. Exactly-once and
// hedge-timer hygiene hold unconditionally; the full arm ledger (every arm
// won, was suppressed at the boundary, was killed mid-plane, or was shed
// before firing) closes with equality only when no faults or planted defects
// could strand arms inside the engines — mirroring request-conservation,
// faulted runs get the <= bound against engine drops instead. Loser buffer
// return is covered by buffer-conservation, and generation safety by the
// pool's ownership audit: a cancel that touched a recycled buffer would fire
// both.
func checkSpecFinal(r *Rig) []string {
	var out []string
	strict := len(r.sc.Faults) == 0 && r.sc.Defect == ""
	for _, tr := range r.tenants {
		if tr.spec == nil {
			continue
		}
		st := tr.spec.Stats()
		if tr.specWinsSeen != st.Wins() {
			out = append(out, fmt.Sprintf(
				"tenant %s: boundary observed %d winners at quiesce but controller recorded %d",
				tr.sc.Name, tr.specWinsSeen, st.Wins()))
		}
		if n := tr.spec.PendingHedges(); n != 0 {
			out = append(out, fmt.Sprintf(
				"tenant %s: %d hedge timers still armed at quiesce", tr.sc.Name, n))
		}
		resolved := st.Wins() + st.Cancels + st.Kills + tr.specUnfired
		if resolved > st.Arms {
			out = append(out, fmt.Sprintf(
				"tenant %s: %d arm resolutions exceed %d arms fired: %+v",
				tr.sc.Name, resolved, st.Arms, st))
		}
		if !strict {
			continue
		}
		if st.Launched != tr.specWinsSeen+tr.specNoArm {
			out = append(out, fmt.Sprintf(
				"tenant %s: fault-free run launched %d groups but saw %d winners + %d no-arm launches",
				tr.sc.Name, st.Launched, tr.specWinsSeen, tr.specNoArm))
		}
		if resolved != st.Arms {
			out = append(out, fmt.Sprintf(
				"tenant %s: fault-free run fired %d arms but resolved only %d (wins=%d cancels=%d kills=%d unfired=%d)",
				tr.sc.Name, st.Arms, resolved, st.Wins(), st.Cancels, st.Kills, tr.specUnfired))
		}
	}
	return out
}

// checkSRQPeriodic bounds the receive rings: the keeper may never post past
// its per-tenant target.
func checkSRQPeriodic(r *Rig, now time.Duration) string {
	for _, nr := range r.nodes {
		for _, tr := range r.tenants {
			if tr.sc.CliNode != nodeIndex(r, nr) && tr.sc.SrvNode != nodeIndex(r, nr) {
				continue
			}
			if p := nr.eng.SRQ(tr.sc.Name).Posted(); p > nr.rqInit {
				return fmt.Sprintf("node %s tenant %s: %d posted > ring target %d",
					nr.name, tr.sc.Name, p, nr.rqInit)
			}
		}
	}
	return ""
}

// checkSRQFinal requires the keeper to have fully replenished every ring.
func checkSRQFinal(r *Rig) []string {
	var out []string
	for _, nr := range r.nodes {
		for _, tr := range r.tenants {
			if tr.sc.CliNode != nodeIndex(r, nr) && tr.sc.SrvNode != nodeIndex(r, nr) {
				continue
			}
			if p := nr.eng.SRQ(tr.sc.Name).Posted(); p != nr.rqInit {
				out = append(out, fmt.Sprintf("node %s tenant %s: ring at %d/%d after drain",
					nr.name, tr.sc.Name, p, nr.rqInit))
			}
		}
	}
	return out
}

// nodeIndex maps a nodeRig back to its scenario index.
func nodeIndex(r *Rig, nr *nodeRig) int {
	for i, n := range r.nodes {
		if n == nr {
			return i
		}
	}
	return -1
}

// fairnessFloor is the minimum share of the per-tenant mean any symmetric
// DWRR tenant must reach inside the load window. DWRR's deficit bound is
// much tighter than this; the slack absorbs warmup and window edges.
const fairnessFloor = 0.55

// fairnessMinTotal gates the check on enough completions for the bound to
// be meaningful.
const fairnessMinTotal = 300

// checkFairness bounds goodput skew for fairness-eligible scenarios:
// identical closed-loop tenants under DWRR with no faults must split the
// window's completions near-evenly.
func checkFairness(r *Rig) []string {
	if !r.sc.Symmetric() || r.sc.Sched != dne.SchedDWRR || len(r.sc.Faults) > 0 || r.sc.Defect != "" {
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
	maxPool := 0
	var completedTotal uint64
	for _, tr := range r.tenants {
		if tr.sc.PoolBufs > maxPool {
			maxPool = tr.sc.PoolBufs
		}
		completedTotal += tr.completed
	}
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
				if pt.V < 0 || pt.V > float64(maxPool) {
					out = append(out, fmt.Sprintf("series %s: gauge %g outside [0,%d] at %v",
						s.Name, pt.V, maxPool, pt.T))
				}
			case strings.HasPrefix(s.Name, "fuzz.worker_busy"):
				if pt.V < 0 || pt.V > 1+1e-9 {
					out = append(out, fmt.Sprintf("series %s: utilization %g outside [0,1] at %v",
						s.Name, pt.V, pt.T))
				}
			}
		}
	}
	if rateSum > float64(completedTotal)+0.5 {
		out = append(out, fmt.Sprintf(
			"completion-rate series integrate to %.1f but ledger completed only %d",
			rateSum, completedTotal))
	}
	return out
}

// checkTraces reconciles the tracer with the request ledger: every finished
// request was completed, every unfinished one is still on the in-flight
// ledger, and nothing was dropped (the rig runs unlimited).
func checkTraces(r *Rig) []string {
	rep := r.tracer.Report()
	var completed uint64
	var inFlight int
	for _, tr := range r.tenants {
		completed += tr.completed
		inFlight += tr.inFlight()
	}
	var out []string
	if uint64(rep.Requests) != completed {
		out = append(out, fmt.Sprintf("tracer finished %d requests but ledger completed %d",
			rep.Requests, completed))
	}
	if rep.Unfinished != inFlight {
		out = append(out, fmt.Sprintf("tracer has %d unfinished requests but ledger has %d in flight",
			rep.Unfinished, inFlight))
	}
	if rep.Dropped != 0 {
		out = append(out, fmt.Sprintf("tracer dropped %d requests with no limit set", rep.Dropped))
	}
	return out
}
