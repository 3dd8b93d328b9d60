package experiments

import (
	"fmt"
	"time"

	"nadino/internal/sim"
)

// Scale-sweep: the million-client event-core stress. Unlike the paper
// figures this experiment measures the simulator itself — how the
// event heap and pooled process layer hold up when one virtual
// cluster carries 10^6 concurrent clients across 100+ nodes.
//
// Clients are proc-free: a million goroutine-backed processes would need
// gigabytes of stacks, so each client is a timer-driven state machine with
// two bound-method callbacks (issue, done) allocated once at setup. A
// request occupies its node's FCFS core via plain busyUntil arithmetic and
// every client interaction is exactly two engine events, so the event core
// is the only thing the sweep exercises.
//
// The tables report only virtual-time quantities (issued, completed, fired
// events, latency moments) — all deterministic for a fixed seed, so the
// sweep participates in TestParallelDeterminism like every other
// experiment. Wall-clock throughput (events/sec) is measured separately by
// BenchmarkScaleSweep and archived in BENCH_sim.json via cmd/benchjson.

// scalePoint is one sweep point's deterministic outcome.
type scalePoint struct {
	Nodes     int
	Clients   int
	Issued    uint64
	Completed uint64
	Events    uint64 // engine events fired during the window
	MeanLat   time.Duration
	MaxLat    time.Duration
}

// scaleNode is one simulated node: a single FCFS service core modeled as
// backlog arithmetic (no Processor, no Proc — just the completion instant).
type scaleNode struct {
	busyUntil time.Duration
}

// scaleClient is one closed-loop client with exponential think time.
type scaleClient struct {
	ex      *scaleExp
	node    *scaleNode
	rng     uint64
	issueAt time.Duration
	issueFn func()
	doneFn  func()
}

// scaleExp is one sweep point's world.
type scaleExp struct {
	eng       *sim.Engine
	nodes     []scaleNode
	clients   []scaleClient
	issued    uint64
	completed uint64
	latSum    time.Duration
	latMax    time.Duration
	think     time.Duration // mean think time
	svcBase   time.Duration
	svcJitter time.Duration
	until     time.Duration
}

// next is a splitmix64 step: cheap, stateless-seedable, deterministic.
func (c *scaleClient) next() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4568b
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// expDur draws an exponential duration with the given mean, capped at 8x to
// keep single stragglers from dominating a short window. The draw uses a
// 26-bit uniform mapped through a rational approximation of -ln(u) to stay
// in integer-friendly territory; exact shape is irrelevant, determinism and
// spread are what matter.
func (c *scaleClient) expDur(mean time.Duration) time.Duration {
	u := float64(c.next()>>38) + 1 // (0, 2^26]
	x := -logApprox(u / (1 << 26))
	if x > 8 {
		x = 8
	}
	return time.Duration(float64(mean) * x)
}

// logApprox is ln(u) for u in (0,1] via the standard atanh series on the
// mantissa after range reduction by halving. Accurate to ~1e-6 over the
// range drawn above — far tighter than the model needs.
func logApprox(u float64) float64 {
	k := 0.0
	for u < 0.5 {
		u *= 2
		k--
	}
	// u in [0.5, 1]; ln(u) = 2*atanh((u-1)/(u+1)).
	t := (u - 1) / (u + 1)
	t2 := t * t
	return k*0.6931471805599453 + 2*t*(1+t2/3+t2*t2/5+t2*t2*t2/7)
}

// issue books the client's next request on its node and schedules the
// completion callback at the service end.
func (c *scaleClient) issue() {
	now := c.ex.eng.Now()
	if now >= c.ex.until {
		return // window over: stop generating
	}
	c.issueAt = now
	start := now
	if c.node.busyUntil > start {
		start = c.node.busyUntil
	}
	svc := c.ex.svcBase + time.Duration(c.next()%uint64(c.ex.svcJitter))
	c.node.busyUntil = start + svc
	c.ex.issued++
	c.ex.eng.At(c.node.busyUntil, c.doneFn)
}

// done records the completion and schedules the next issue after the think
// time.
func (c *scaleClient) done() {
	now := c.ex.eng.Now()
	lat := now - c.issueAt
	c.ex.completed++
	c.ex.latSum += lat
	if lat > c.ex.latMax {
		c.ex.latMax = lat
	}
	c.ex.eng.At(now+c.expDur(c.ex.think), c.issueFn)
}

// runScalePoint builds and drains one cluster size.
func runScalePoint(o Opts, nodes, clientsPerNode int, window time.Duration) scalePoint {
	ex := &scaleExp{
		eng:       sim.NewEngine(o.Seed),
		nodes:     make([]scaleNode, nodes),
		clients:   make([]scaleClient, nodes*clientsPerNode),
		think:     10 * time.Millisecond,
		svcBase:   500 * time.Nanosecond,
		svcJitter: 500 * time.Nanosecond,
		until:     window,
	}
	defer ex.eng.Stop()
	for i := range ex.clients {
		c := &ex.clients[i]
		c.ex = ex
		c.node = &ex.nodes[i%nodes]
		c.rng = uint64(o.Seed)*0x9e3779b97f4a7c15 + uint64(i)*0xd1b54a32d192ed03
		c.issueFn = c.issue
		c.doneFn = c.done
		// Stagger arrivals across one think interval so the cluster does not
		// start with a synchronized thundering herd.
		ex.eng.At(time.Duration(c.next()%uint64(ex.think)), c.issueFn)
	}
	ex.eng.Run() // window cutoff in issue() quiesces the world
	pt := scalePoint{
		Nodes:     nodes,
		Clients:   len(ex.clients),
		Issued:    ex.issued,
		Completed: ex.completed,
		Events:    ex.eng.Fired(),
		MaxLat:    ex.latMax,
	}
	if ex.completed > 0 {
		pt.MeanLat = ex.latSum / time.Duration(ex.completed)
	}
	return pt
}

// ScaleSweep runs the cluster-size ladder. Full mode tops out at 1M
// concurrent clients on 100 nodes; quick mode keeps the same shape at toy
// sizes for tests.
func ScaleSweep(o Opts) []scalePoint {
	nodes := o.pick([]int{2, 4, 8}, []int{10, 25, 50, 100})
	perNode := 10000
	if o.Quick {
		perNode = 250
	}
	window := o.scale(10*time.Millisecond, 50*time.Millisecond)
	out := make([]scalePoint, len(nodes))
	o.forEach(len(nodes), func(i int) {
		out[i] = runScalePoint(o, nodes[i], perNode, window)
	})
	return out
}

// RunScale adapts the sweep to the registry.
func RunScale(o Opts) []*Table {
	pts := ScaleSweep(o)
	t := &Table{
		Title:   "Scale sweep — million-client event core",
		Columns: []string{"nodes", "clients", "issued", "completed", "events", "mean lat", "max lat"},
		Note:    "virtual-time quantities only; wall-clock events/sec is measured by BenchmarkScaleSweep (make bench)",
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%d", p.Clients),
			fmt.Sprintf("%d", p.Issued),
			fmt.Sprintf("%d", p.Completed),
			fmt.Sprintf("%d", p.Events),
			fLat(p.MeanLat),
			fLat(p.MaxLat),
		})
	}
	return []*Table{t}
}
