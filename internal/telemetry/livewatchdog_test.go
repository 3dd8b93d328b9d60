package telemetry

import (
	"strings"
	"testing"
	"time"

	"nadino/internal/sim"
)

// TestLiveWatchdogEpisodes drives a gauge through two breach episodes and
// checks the live watchdog fires once per episode, at the episode's first
// breaching sample, the moment sustain is met — not post-mortem.
func TestLiveWatchdogEpisodes(t *testing.T) {
	eng := sim.NewEngine(7)
	reg := NewRegistry()
	depth := 0.0
	reg.Gauge("q.depth", func() float64 { return depth })
	sc := reg.Scrape(eng, time.Millisecond)

	w := NewLiveWatchdog()
	w.Add(Rule{Name: "depth-slo", Series: "q.depth", Op: OpLE, Bound: 10, Sustain: 2})
	var firedAt []time.Duration
	w.OnBreach = func(v Violation) { firedAt = append(firedAt, v.At) }
	w.Attach(sc)

	// Sample timeline (ms): 1..3 ok, 4..6 breach (episode 1), 7 ok,
	// 8 breach once (sustain not met), 9 ok, 10..11 breach (episode 2).
	plan := map[int]float64{4: 20, 5: 25, 6: 30, 8: 99, 10: 15, 11: 18}
	eng.Ticker(time.Millisecond, func(now time.Duration) {
		ms := int(now / time.Millisecond)
		if v, ok := plan[ms+1]; ok { // value the *next* scrape will see
			depth = v
		} else {
			depth = 1
		}
	})
	eng.RunUntil(12 * time.Millisecond)

	vs := w.Violations()
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2 episodes: %+v", len(vs), vs)
	}
	// Episode 1 starts at the 4ms sample, fires when sustain=2 is met.
	if vs[0].At != 4*time.Millisecond {
		t.Fatalf("episode 1 at %v, want 4ms", vs[0].At)
	}
	if vs[1].At != 10*time.Millisecond {
		t.Fatalf("episode 2 at %v, want 10ms", vs[1].At)
	}
	if len(firedAt) != 2 {
		t.Fatalf("OnBreach fired %d times, want 2", len(firedAt))
	}
	if !strings.Contains(vs[0].Detail, "consecutive") {
		t.Fatalf("detail missing sustain context: %q", vs[0].Detail)
	}
}

// TestLiveWatchdogMissingSeries checks an absent series is itself a
// violation, reported once.
func TestLiveWatchdogMissingSeries(t *testing.T) {
	eng := sim.NewEngine(7)
	reg := NewRegistry()
	reg.Gauge("present", func() float64 { return 0 })
	sc := reg.Scrape(eng, time.Millisecond)
	w := NewLiveWatchdog()
	w.Add(Rule{Name: "ghost", Series: "absent", Op: OpLE, Bound: 1})
	w.Attach(sc)
	eng.RunUntil(5 * time.Millisecond)
	vs := w.Violations()
	if len(vs) != 1 || vs[0].Detail != "series not found" {
		t.Fatalf("want exactly one series-not-found violation, got %+v", vs)
	}
}

// TestBuildInfo checks the conventional build_info and uptime gauges land
// in the live exposition with both clocks.
func TestBuildInfo(t *testing.T) {
	eng := sim.NewEngine(1)
	reg := NewRegistry()
	reg.BuildInfo(eng.Now, time.Now())
	eng.RunUntil(3 * time.Second)
	var buf strings.Builder
	if err := WriteLivePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE nadino_build_info gauge",
		`nadino_build_info{version="dev",goversion="go`,
		`nadino_process_uptime_seconds{clock="virtual"} 3`,
		`nadino_process_uptime_seconds{clock="wall"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
