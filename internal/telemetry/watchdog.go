package telemetry

import (
	"fmt"
	"time"

	"nadino/internal/metrics"
)

// Op is a threshold-rule comparison: the assertion every sample must
// satisfy against the rule's Bound.
type Op int

// Threshold operators.
const (
	OpLT Op = iota // value <  Bound
	OpLE           // value <= Bound
	OpGT           // value >  Bound
	OpGE           // value >= Bound
)

func (o Op) String() string {
	switch o {
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	}
	return "?"
}

func (o Op) holds(v, bound float64) bool {
	switch o {
	case OpLT:
		return v < bound
	case OpLE:
		return v <= bound
	case OpGT:
		return v > bound
	case OpGE:
		return v >= bound
	}
	return false
}

// Rule is a declarative threshold SLO over one series: every sample inside
// [From, To] must satisfy `value Op Bound`. Sustain tolerates short
// excursions — a violation is emitted only after Sustain consecutive
// breaching samples (default 1), one violation per breach episode.
type Rule struct {
	Name   string
	Series string // canonical series key (Meta.Key)
	From   time.Duration
	To     time.Duration // 0 = end of series
	Op     Op
	Bound  float64
	// Sustain is how many consecutive samples must breach before a
	// violation fires; values < 1 mean 1.
	Sustain int
}

// covers reports whether a sample at t falls inside the rule's window
// (To <= 0 leaves it open-ended).
func (r *Rule) covers(t time.Duration) bool {
	return t >= r.From && (r.To <= 0 || t <= r.To)
}

// episode is one threshold rule's breach state machine, fed sample by
// sample by LiveWatchdog as the scraper lands them. Consecutive breaching
// samples form a run; the run fires one violation once it reaches Sustain
// samples, and a conforming sample closes the episode and re-arms the rule.
type episode struct {
	run      int
	runStart time.Duration
	runValue float64
	fired    bool
}

// observe feeds one in-window sample of r's series to the state machine
// and returns the violation to record if this sample fires the episode.
func (e *episode) observe(r *Rule, t time.Duration, v float64) (Violation, bool) {
	if r.Op.holds(v, r.Bound) {
		e.run, e.fired = 0, false
		return Violation{}, false
	}
	if e.run == 0 {
		e.runStart, e.runValue = t, v
	}
	e.run++
	if e.fired || e.run < max(r.Sustain, 1) {
		return Violation{}, false
	}
	e.fired = true // one violation per breach episode
	return Violation{
		Rule: r.Name, Series: r.Series, At: e.runStart, Value: e.runValue,
		Detail: fmt.Sprintf("want %s %g, got %g for %d consecutive samples", r.Op, r.Bound, e.runValue, e.run),
	}, true
}

// RecoveryRule is a declarative recovery SLO: after the fault clears at
// ClearAt, the series must make a sustained return to within Tolerance of
// its own baseline (measured over [BaselineFrom, BaselineTo]) in at most
// Within of virtual time. It wraps metrics.RecoveryDetector, replacing the
// hand-rolled recovery assertions in the resilience experiments; Check
// evaluates it once the run has finished.
type RecoveryRule struct {
	Name         string
	Series       string
	BaselineFrom time.Duration
	BaselineTo   time.Duration
	ClearAt      time.Duration
	Within       time.Duration
	Tolerance    float64 // fraction below baseline still counted recovered
	Sustain      int     // consecutive recovered samples required (min 1)
}

// Violation is one structured SLO breach record.
type Violation struct {
	Rule   string        `json:"rule"`
	Series string        `json:"series"`
	At     time.Duration `json:"at_ns"`
	Value  float64       `json:"value"`
	Detail string        `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s at %v (value %g): %s", v.Rule, v.Series, v.At, v.Value, v.Detail)
}

// Check evaluates the recovery SLO over s, the rule's series after the run
// (nil when the series is missing, itself a violation — a silently absent
// SLO is worse than a failing one).
func (r RecoveryRule) Check(s *metrics.Series) []Violation {
	if s == nil {
		return []Violation{{Rule: r.Name, Series: r.Series, Detail: "series not found"}}
	}
	baseline := s.MeanBetween(r.BaselineFrom, r.BaselineTo)
	det := metrics.RecoveryDetector{Baseline: baseline, Tolerance: r.Tolerance, Sustain: r.Sustain}
	rt, ok := det.Detect(s, r.ClearAt)
	if !ok {
		return []Violation{{
			Rule: r.Name, Series: r.Series, At: r.ClearAt, Value: baseline,
			Detail: fmt.Sprintf("no sustained return to within %.0f%% of baseline %g after fault clear", 100*r.Tolerance, baseline),
		}}
	}
	if r.Within > 0 && rt > r.Within {
		return []Violation{{
			Rule: r.Name, Series: r.Series, At: r.ClearAt + rt, Value: rt.Seconds(),
			Detail: fmt.Sprintf("recovered in %v, budget %v", rt, r.Within),
		}}
	}
	return nil
}
