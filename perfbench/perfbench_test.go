package main

import (
	"regexp"
	"testing"
	"time"
)

// testWindow keeps the tests short: a few virtual milliseconds per run.
const testWindow = 5 * time.Millisecond

func mustRun(t *testing.T, w workload, seed int64, traced bool) *result {
	t.Helper()
	r, err := run(w, seed, testWindow, traced, t.TempDir())
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if !r.correct() {
		t.Fatalf("%s seed %d: checks failed: %v", w.name, seed, r.failures)
	}
	return r
}

// arrivals runs w's generator through warm-up plus a short stretch and
// returns the hash over every submission it made.
func arrivals(w workload, seed int64) uint64 {
	b := w.build(seed)
	defer b.c.Eng.Stop()
	b.c.Eng.RunUntil(b.warm + 2*time.Millisecond)
	return b.arrivals
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := arrivals(w, 1), arrivals(w, 1), arrivals(w, 2)
		if a != b {
			t.Errorf("%s: seed 1 generated different arrivals on two builds (%x, %x)", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same arrivals", w.name)
		}
	}
}

// simFigures are the metrics that must repeat exactly for a seed.
func simFigures(r *result) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range append(append([]metric(nil), r.metrics...), r.extra...) {
		switch m.name {
		case "sim_rps", "sim_p50_us", "sim_p99_us", "answered_frac", "fail_frac":
			out[m.name] = m.value
		}
	}
	out["sim_digest"] = float64(r.digest)
	return out
}

func TestSimFiguresRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		a, b := simFigures(mustRun(t, w, 3, false)), simFigures(mustRun(t, w, 3, false))
		if len(a) != 6 {
			t.Fatalf("%s: expected 6 sim figures, got %v", w.name, a)
		}
		for k, v := range a {
			if b[k] != v {
				t.Errorf("%s: %s = %v then %v for the same seed", w.name, k, v, b[k])
			}
		}
	}
}

func TestTracingLeavesDigest(t *testing.T) {
	for _, w := range workloads {
		if a, b := mustRun(t, w, 4, false).digest, mustRun(t, w, 4, true).digest; a != b {
			t.Errorf("%s: sim_digest %016x untraced, %016x traced", w.name, a, b)
		}
	}
}

func TestNamesAndControls(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := mustRun(t, w, 5, traced)
			seen := make(map[string]bool)
			for _, m := range append(append([]metric(nil), r.metrics...), r.extra...) {
				if !name.MatchString(m.name) || seen[m.name] {
					t.Errorf("%s: bad or repeated metric name %q", w.name, m.name)
				}
				seen[m.name] = true
			}
			if !traced {
				continue
			}
			// The gateway and speculation counters separate the control
			// workloads from fabric-chaos.
			for _, m := range r.metrics {
				switch m.name {
				case "gw.forwarded", "gw.busy_frac", "spec.arms_per_req", "spec.useful_frac":
					if zero := m.value == 0; zero == (w.gateways && w.speculates) {
						t.Errorf("%s: %s = %v", w.name, m.name, m.value)
					}
				}
			}
		}
	}
}

func TestNoFailuresWithoutFaults(t *testing.T) {
	for _, w := range workloads {
		if w.name == "fabric-chaos" {
			continue
		}
		if r := mustRun(t, w, 6, false); r.unanswered != 0 || r.attempted == 0 {
			t.Errorf("%s: %d of %d requests unanswered", w.name, r.unanswered, r.attempted)
		}
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 1000000000ns, 100% of 1000000000ns total
      flat  flat%   sum%        cum   cum%
400000000ns 40.00% 40.00% 400000000ns 40.00%  runtime.mcall
200000000ns 20.00% 60.00% 300000000ns 30.00%  nadino/internal/sim.(*Queue[go.shape.struct {}]).Get
100000000ns 10.00% 70.00% 100000000ns 10.00%  runtime.memmove
100000000ns 10.00% 80.00% 100000000ns 10.00%  runtime.mallocgc
100000000ns 10.00% 90.00% 100000000ns 10.00%  nadino/internal/dne.(*Engine).workerLoop
 50000000ns  5.00% 95.00%  50000000ns  5.00%  main.(*testbed).submit.func1
 50000000ns  5.00%   100%  50000000ns  5.00%  sort.Sort
`)
	got, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"runtime_sched": 40, "sim": 20, "runtime_copy": 10, "runtime_malloc": 10, "dne": 10, "bench": 5, "other": 5}
	for _, l := range layers {
		if got[l] != want[l] {
			t.Errorf("host.pct.%s = %v, want %v", l, got[l], want[l])
		}
	}
}
