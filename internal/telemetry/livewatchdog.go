package telemetry

import (
	"sync"
	"time"
)

// LiveWatchdog evaluates threshold Rules continuously as the scraper
// samples, instead of once over the finished series like Watchdog. It
// attaches to a Scraper's OnSample hook and re-checks only each rule's
// newest window, carrying the sustain run across calls — so a breach fires
// the moment its Sustain-th consecutive bad sample lands, in engine context,
// while the system is still running. That is what lets nadino-svc dump the
// flight recorder *at* the breach rather than post-mortem.
//
// Episode semantics match Watchdog exactly: one violation per breach
// episode, a conforming sample closes the episode and re-arms the rule.
// Rule.From/To bound evaluation in virtual time as usual (To == 0 means
// forever). Recorded violations are guarded by a mutex so the HTTP plane
// can list them while the engine appends.
type LiveWatchdog struct {
	rules []Rule
	state []liveRuleState

	// OnBreach, if set, runs in engine context the moment a violation is
	// recorded. nadino-svc hooks the flight-recorder dump here.
	OnBreach func(Violation)

	mu         sync.Mutex
	violations []Violation
}

// liveRuleState is the per-rule episode accumulator.
type liveRuleState struct {
	episode
	missing bool // series-not-found already reported
}

// NewLiveWatchdog returns an empty live watchdog.
func NewLiveWatchdog() *LiveWatchdog { return &LiveWatchdog{} }

// Add registers a threshold rule. Add before Attach.
func (w *LiveWatchdog) Add(r Rule) {
	w.rules = append(w.rules, r)
	w.state = append(w.state, liveRuleState{})
}

// Attach hooks the watchdog to sc: every scrape window is evaluated as it
// closes. One watchdog attaches to one scraper.
func (w *LiveWatchdog) Attach(sc *Scraper) {
	sc.OnSample(func(now time.Duration) { w.step(sc, now) })
}

// step evaluates every rule against the sample that just landed at now.
// Engine context.
func (w *LiveWatchdog) step(sc *Scraper, now time.Duration) {
	for i := range w.rules {
		r := &w.rules[i]
		st := &w.state[i]
		if !r.covers(now) {
			continue
		}
		s := sc.Lookup(r.Series)
		if s == nil {
			if !st.missing {
				st.missing = true
				w.record(Violation{Rule: r.Name, Series: r.Series, At: now, Detail: "series not found"})
			}
			continue
		}
		n := s.Len()
		if n == 0 {
			continue
		}
		p := s.Points[n-1]
		if p.T != now {
			continue // this series did not sample this window
		}
		if v, fired := st.observe(r, p.T, p.V); fired {
			w.record(v)
		}
	}
}

func (w *LiveWatchdog) record(v Violation) {
	w.mu.Lock()
	w.violations = append(w.violations, v)
	w.mu.Unlock()
	if w.OnBreach != nil {
		w.OnBreach(v)
	}
}

// Violations returns a copy of every violation recorded so far, in firing
// order. Safe to call from any goroutine.
func (w *LiveWatchdog) Violations() []Violation {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Violation, len(w.violations))
	copy(out, w.violations)
	return out
}

// Rules returns the registered rules in order (for the management API).
func (w *LiveWatchdog) Rules() []Rule {
	out := make([]Rule, len(w.rules))
	copy(out, w.rules)
	return out
}
