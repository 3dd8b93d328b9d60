package simtest

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"nadino/internal/flightrec"
	"nadino/internal/speculate"
)

// checkPeriod is the periodic-invariant tick: fine enough to interleave
// with every stage of a request's life, coarse enough to keep a sweep of
// thousands of scenarios cheap.
const checkPeriod = 500 * time.Microsecond

// Result is one scenario's verdict plus the deterministic evidence trail.
// Report (and therefore Fingerprint) is a pure function of the scenario, so
// re-running a failing seed reproduces it byte-identically.
type Result struct {
	Scenario Scenario

	Issued, Completed, InFlight uint64
	Drops                       uint64 // requests given up by a counted drop (see Rig.drops)
	Retried                     uint64
	Forwarded                   uint64 // gateway writes posted (gateway scenarios only)
	FaultsApplied               int
	FaultsReverted              int
	AuditOps                    int

	// The ingress speculation controller's counters (all zero when the
	// scenario runs without cloning or hedging).
	Spec speculate.Stats

	Violations []Violation

	// Report is the canonical textual summary; Fingerprint is its FNV-64a
	// hash, the byte-identity check for reproductions.
	Report      string
	Fingerprint uint64

	// FlightDump is the flight recorder's last-N report, populated only
	// when the run failed. It is deliberately NOT part of Report: the dump
	// is deterministic too, but keeping it out preserves fingerprint
	// stability across recorder-coverage changes.
	FlightDump string
}

// Failed reports whether any invariant fired.
func (res *Result) Failed() bool { return len(res.Violations) > 0 }

// ReproCommand prints the exact command that re-runs this scenario's seed
// standalone. Only meaningful for generated scenarios (Generate(Seed));
// shrunk scenarios are reported inline instead.
func (res *Result) ReproCommand() string {
	return fmt.Sprintf("go run ./cmd/nadino-bench -run fuzz -seed %d -fuzz-seeds 1", res.Scenario.Seed)
}

// Run builds the scenario's world, drives it to quiesce under the periodic
// checkers, then runs the final checkers. Panics anywhere inside the
// simulation are converted into a "panic" violation so a sweep survives a
// crashing seed and still reports it.
func Run(sc Scenario) *Result {
	res := &Result{Scenario: sc}
	var r *Rig
	var panicDetail string
	func() {
		defer func() {
			if p := recover(); p != nil {
				panicDetail = fmt.Sprint(p)
			}
		}()
		r = NewRig(sc)
		r.lastBusy = make([]time.Duration, len(r.cores))
		invs := Invariants()
		stop := r.eng.Ticker(checkPeriod, func(now time.Duration) {
			for _, inv := range invs {
				if inv.Periodic == nil || r.tripped[inv.Name] {
					continue
				}
				if msg := inv.Periodic(r, now); msg != "" {
					r.tripped[inv.Name] = true
					r.rec.Record(flightrec.KindInvariant, r.invActor, int64(len(r.violations)), 0)
					r.violations = append(r.violations, Violation{At: now, Invariant: inv.Name, Detail: msg})
				}
			}
		})
		r.eng.RunUntil(r.endAt)
		stop()
		r.scraper.Stop()
		for _, inv := range invs {
			if inv.Final == nil {
				continue
			}
			for _, msg := range inv.Final(r) {
				r.rec.Record(flightrec.KindInvariant, r.invActor, int64(len(r.violations)), 0)
				r.violations = append(r.violations,
					Violation{At: r.eng.Now(), Invariant: inv.Name, Detail: msg})
			}
		}
	}()
	if r != nil {
		res.Violations = append(res.Violations, r.violations...)
		for _, tr := range r.tenants {
			res.Issued += tr.issued
			res.Completed += tr.completed
			res.InFlight += tr.inFlight()
		}
		if sp := r.c.Gateway().Spec(); sp != nil {
			res.Spec = sp.Stats()
		}
		res.Drops = r.drops()
		for _, node := range r.nodes {
			retried, _ := r.c.Engine(node).RetryStats()
			res.Retried += retried
			if gw := r.c.NodeGateway(node); gw != nil {
				res.Forwarded += gw.Stats().Forwarded
			}
		}
		res.FaultsApplied = r.inj.Applied()
		res.FaultsReverted = r.inj.Reverted()
		res.AuditOps = r.auditOps
	}
	if panicDetail != "" {
		at := time.Duration(0)
		if r != nil {
			at = r.eng.Now()
		}
		res.Violations = append(res.Violations, Violation{At: at, Invariant: "panic", Detail: panicDetail})
	}
	if r != nil && len(res.Violations) > 0 {
		res.FlightDump = flightrec.TextDump(r.rec, 64)
	}
	res.Report = res.render()
	res.Fingerprint = fingerprint(res.Report)
	if r != nil {
		// Unwind the processes still blocked in the world so their
		// coroutines return to the sim pool for the next scenario.
		r.eng.Stop()
	}
	return res
}

// render builds the canonical report text. Everything in it is derived from
// deterministic simulation state, so it is byte-stable per scenario.
func (res *Result) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %s\n", res.Scenario)
	fmt.Fprintf(&b, "issued=%d completed=%d in_flight=%d drops=%d retried=%d\n",
		res.Issued, res.Completed, res.InFlight, res.Drops, res.Retried)
	if res.Scenario.Gateways {
		fmt.Fprintf(&b, "gateway forwarded=%d\n", res.Forwarded)
	}
	if res.Scenario.Speculative() {
		st := res.Spec
		fmt.Fprintf(&b, "spec launched=%d arms=%d clones=%d hedges=%d wins=%d cancels=%d kills=%d\n",
			st.Launched, st.Arms, st.Clones, st.Hedges, st.Wins(), st.Cancels, st.Kills)
	}
	fmt.Fprintf(&b, "faults applied=%d reverted=%d audit_ops=%d\n",
		res.FaultsApplied, res.FaultsReverted, res.AuditOps)
	if len(res.Violations) == 0 {
		b.WriteString("verdict: PASS\n")
	} else {
		fmt.Fprintf(&b, "verdict: FAIL (%d violations)\n", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}

func fingerprint(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// violatedNames collects the distinct invariant names that fired.
func (res *Result) violatedNames() map[string]bool {
	m := make(map[string]bool, len(res.Violations))
	for _, v := range res.Violations {
		m[v.Invariant] = true
	}
	return m
}
