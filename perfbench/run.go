package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"nadino/internal/flightrec"
	"nadino/internal/trace"
)

// Run shape. Changing any of these redefines the benchmark.
const (
	// setups is how often a run builds and warms its cluster; setup_s is
	// the median, and the last cluster is the one measured.
	setups = 9
	// checkLen is the virtual stretch every set-up runs after warm-up; the
	// set-ups' digests over it must agree (same seed, same world).
	checkLen = 5 * time.Millisecond
	// parts splits the measured window into equal virtual stretches, about
	// a quarter of a host second each at the default length. Calibrations
	// bracket every part; host_ns_per_req is the median part at reference
	// speed, which also filters the parts a GC cycle or a neighbour hit.
	parts = 80
	// drainLen is how much generation-free virtual time a request gets to
	// be answered after the window before it counts as failed.
	drainLen = 50 * time.Millisecond
	// flightrecSize is the traced pass's flight-recorder ring.
	flightrecSize = 4096
)

// result is one run's metrics and check verdicts.
type result struct {
	workload   string
	seed       int64
	traced     bool
	window     time.Duration
	gomaxprocs int
	digest     uint64

	notes   []string
	metrics []metric // the JSON metrics: end-to-end, or per-layer when traced
	extra   []metric // printed only

	attempted, unanswered uint64
	failures              []string
}

func (r *result) correct() bool { return len(r.failures) == 0 }

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit})
}

// setUpTimes are the per-set-up host times, in reference-speed seconds.
type setUpTimes struct{ build, ready, total []float64 }

// measured is what the window left behind for the metrics and checks.
type measured struct {
	host        []time.Duration // per part
	done        []uint64        // completions per part
	slow        []float64       // slow[i] and slow[i+1] bracket part i (traced: only the halves)
	delta       counters
	completions uint64
	lat         []time.Duration // sorted
	pending     int
	procs       int
	queueEnd    int
	netCores    float64
	tracer      *trace.Tracer
	shares      map[string]float64 // host.pct.* of the traced half
}

// run sets w up setups times from seed, measures a virtual window of the
// given length on the last cluster, drains it, and checks the outputs.
// With traced it profiles the window, installs the tracer halfway, and
// reports per-layer metrics instead of end-to-end ones.
func run(w workload, seed int64, window time.Duration, traced bool, outDir string) (*result, error) {
	r := &result{
		workload: w.name, seed: seed, traced: traced, window: window,
		gomaxprocs: runtime.GOMAXPROCS(0),
	}
	b, st := r.setUp(w, seed)
	defer b.c.Eng.Stop()
	m, err := measure(b, window, traced, outDir)
	if err != nil {
		return nil, err
	}
	r.digest = b.digest(m.delta)
	r.drain(w, b, m.delta)
	if w.name == "tenants-open" {
		r.notes = append(r.notes, "generator lateness: none; the open-loop users fire on the virtual clock, which cannot run late")
	}
	if traced {
		r.layerMetrics(b, st, m)
	} else {
		r.endToEnd(st, m)
	}
	return r, nil
}

// setUp builds and warms w's cluster setups times and returns the last;
// every set-up's digest over checkLen must match the first.
func (r *result) setUp(w workload, seed int64) (*testbed, setUpTimes) {
	var st setUpTimes
	var b *testbed
	var first uint64
	for i := 0; i < setups; i++ {
		if b != nil {
			b.c.Eng.Stop()
			runtime.GC()
		}
		before := slowness()
		t0 := time.Now()
		b = w.build(seed)
		t1 := time.Now()
		b.c.Eng.RunUntil(b.warm)
		t2 := time.Now()
		slow := (before + slowness()) / 2
		st.build = append(st.build, t1.Sub(t0).Seconds()/slow)
		st.ready = append(st.ready, t2.Sub(t1).Seconds()/slow)
		st.total = append(st.total, t2.Sub(t0).Seconds()/slow)

		k0 := b.read()
		b.open()
		b.c.Eng.RunUntil(b.warm + checkLen)
		b.close()
		dg := b.digest(b.read().sub(k0))
		if i == 0 {
			first = dg
		}
		r.check(dg == first, "set-up %d of the same seed printed sim_digest %016x, set-up 0 %016x", i, dg, first)
	}
	return b, st
}

// measure runs the window in parts. Untraced, a calibration brackets every
// part. Traced, the first half runs under one CPU profile and the second,
// with the tracer and flight recorder installed, under another; the
// calibrations then bracket only the halves, outside the profiles.
func measure(b *testbed, window time.Duration, traced bool, outDir string) (*measured, error) {
	start := b.warm + checkLen
	if b.faults != nil {
		b.faults(b, start, window)
	}
	b.timeSubmits = traced
	m := &measured{
		host: make([]time.Duration, parts),
		done: make([]uint64, parts),
		slow: make([]float64, parts+1),
	}
	runtime.GC()
	b.open()
	k0 := b.read()
	m.slow[0] = slowness()
	var prof *profile
	for i := 0; i < parts; i++ {
		if traced && (i == 0 || i == parts/2) {
			if prof != nil {
				if err := prof.stop(); err != nil {
					return nil, err
				}
				os.Remove(prof.path) // profiled only to cost the same as the traced half
				m.slow[i] = slowness()
				m.tracer = trace.New(nil)
				b.c.SetTracer(m.tracer)
				b.c.AttachFlightRecorder(flightrec.New(flightrecSize, b.c.Eng.Now))
			}
			var err error
			if prof, err = startProfile(outDir, i); err != nil {
				return nil, err
			}
		}
		c0 := b.completions
		t := time.Now()
		b.c.Eng.RunUntil(start + window*time.Duration(i+1)/parts)
		m.host[i] = time.Since(t)
		m.done[i] = b.completions - c0
		if !traced {
			m.slow[i+1] = slowness()
		}
	}
	if traced {
		if err := prof.stop(); err != nil {
			return nil, err
		}
		m.slow[parts] = slowness()
	}
	m.delta = b.read().sub(k0)
	b.close()
	m.completions = b.completions
	m.lat = append([]time.Duration(nil), b.lat...)
	sort.Slice(m.lat, func(i, j int) bool { return m.lat[i] < m.lat[j] })
	m.pending, m.procs, m.queueEnd = b.c.Eng.Pending(), b.c.Eng.Procs(), b.c.Gateway().QueueDepth()
	m.netCores = b.c.NetCPUStats(b.c.Eng.Now()).Total()
	if traced {
		var err error
		if m.shares, err = prof.shares(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// drain stops generation, gives every request drainLen to be answered, and
// runs the correctness checks.
func (r *result) drain(w workload, b *testbed, window counters) {
	k0 := b.read()
	b.stop = true
	b.c.Eng.RunUntil(b.c.Eng.Now() + drainLen)
	late := b.read().sub(k0)
	r.attempted = uint64(b.endID - b.firstID)
	r.unanswered = b.unanswered(b.firstID, b.endID)
	all := uint64(len(b.replied))
	lost := b.unanswered(0, len(b.replied))

	r.check(b.dupes == 0, "%d replies fired more than once", b.dupes)
	r.check(b.c.Completed.Total()+lost == all,
		"core counted %d completions and %d requests are unanswered, but %d were submitted", b.c.Completed.Total(), lost, all)
	r.check(b.c.Gateway().Served() == b.replies, "ingress served %d responses, clients got %d", b.c.Gateway().Served(), b.replies)
	drops := window.drops() + late.drops()
	r.check(r.unanswered <= drops,
		"%d window requests unanswered after the drain but layers report only %d drops: lost silently", r.unanswered, drops)
	r.check(b.completions > 0 && r.attempted > 0, "no request completed in the window")
	r.check(w.gateways == (window.gwForwarded > 0), "gw.forwarded = %d, gateways on = %v", window.gwForwarded, w.gateways)
	if !w.gateways {
		r.check(window.gateways == 0 && window.gwTransit+window.gwRetries+window.gwDropped == 0 && window.gwBusy == 0,
			"gateway counters moved on a workload without gateways")
	}
	r.check(w.speculates == (window.spec.Launched > 0), "spec.launched = %d, speculation on = %v", window.spec.Launched, w.speculates)
	if !w.speculates {
		r.check(window.spec.Arms+window.spec.LateFires+window.specFnKills+window.dneSpecDrops == 0,
			"speculation counters moved on a workload without speculation")
	}
}

func (r *result) endToEnd(st setUpTimes, m *measured) {
	n := float64(m.completions)
	var wall time.Duration
	atRef := make([]float64, parts)
	for i, h := range m.host {
		wall += h
		atRef[i] = float64(h.Nanoseconds()) / float64(m.done[i]) / ((m.slow[i] + m.slow[i+1]) / 2)
	}
	failFrac := float64(r.unanswered) / float64(r.attempted)
	r.add("host_ns_per_req", median(atRef), "ns")
	r.add("setup_s", median(st.total), "s")
	r.add("allocs_per_req", float64(m.delta.allocs)/n, "count")
	r.add("peak_rss_mb", peakRSSMiB(), "MiB")
	r.add("sim_rps", n/r.window.Seconds(), "req/s")
	r.add("sim_p50_us", us(quantile(m.lat, 0.50)), "us")
	r.add("sim_p99_us", us(quantile(m.lat, 0.99)), "us")
	r.metrics[len(r.metrics)-1].note = fmt.Sprintf("(n=%d samples, %d beyond)", len(m.lat), len(m.lat)/100)
	r.add("answered_frac", 1-failFrac, "ratio")
	r.extra = append(r.extra,
		metric{name: "fail_frac", value: failFrac, unit: "ratio",
			note: fmt.Sprintf("(%d of %d window requests unanswered after a %v drain)", r.unanswered, r.attempted, drainLen)},
		metric{name: "host_ns_per_req_wall", value: float64(wall.Nanoseconds()) / n, unit: "ns",
			note: "(whole window: wall time / completions, not calibrated)"},
		metric{name: "host_slowness", value: median(m.slow), unit: "ratio",
			note: "(calibration cost / reference cost; 1 = reference speed)"})
}

// digest hashes what the simulated system did in a window: per-chain
// completion counts, every latency sample in completion order, and the
// model counters.
func (b *testbed) digest(k counters) uint64 {
	h := mix(fnvOffset, b.perChain...)
	for _, l := range b.lat {
		h = mix(h, uint64(l))
	}
	return mix(h, k.model()...)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
