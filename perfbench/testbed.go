package main

import (
	"math/rand"
	"time"

	"nadino/internal/core"
	"nadino/internal/ingress"
	"nadino/internal/sim"
)

// testbed owns one cluster and the generator feeding it, and keeps the
// ledger the correctness checks read: every submission's reply state and
// the window's completions and latencies.
type testbed struct {
	c      *core.Cluster
	seed   int64
	nodes  []string
	chains []string
	// rng draws every generated input (think times); the cluster keeps
	// its own engine RNG.
	rng *rand.Rand
	// warm is the virtual time at which warm-up ends: connection setup
	// plus 10ms of load, as in the repository's experiments.
	warm time.Duration
	// faults, when set, installs the workload's fault schedule at the
	// start of the measured window.
	faults func(b *testbed, start, length time.Duration)
	// stop ends generation: closed-loop clients exit after their reply,
	// open-loop users stop rescheduling.
	stop bool

	replied  []bool // per submission id
	replies  uint64
	dupes    uint64
	arrivals uint64 // hash over every submission (chain, client, due); the tests compare it per seed

	// Window ledger, reset by open.
	recording   bool
	firstID     int // first submission id inside the window
	endID       int // first submission id after the window
	completions uint64
	perChain    []uint64
	lat         []time.Duration

	// timeSubmits turns on the bench.submit_ns span (traced runs only).
	timeSubmits bool
	submitHost  time.Duration
	submitCalls uint64
}

func newTestbed(cfg core.Config, seed int64, chains []string) *testbed {
	c := core.NewCluster(cfg)
	return &testbed{
		c:        c,
		seed:     seed,
		nodes:    cfg.Nodes,
		chains:   chains,
		rng:      rand.New(rand.NewSource(seed)),
		warm:     c.P.QPSetupTime + 10*time.Millisecond,
		arrivals: fnvOffset,
		perChain: make([]uint64, len(chains)),
	}
}

// closedLoop spawns n client Procs, assigned round-robin to the testbed's
// chains; each submits, waits for its reply, and resubmits. Clients start
// at seeded offsets within startSpread of readiness, so the seed decides
// how their requests interleave.
func (b *testbed) closedLoop(n int) {
	for i := 0; i < n; i++ {
		id, chain := i, i%len(b.chains)
		b.c.Eng.Spawn("client", func(pr *sim.Proc) {
			b.c.WaitReady(pr)
			pr.Sleep(time.Duration(b.rng.Int63n(int64(startSpread))))
			respQ := sim.NewQueue[struct{}](b.c.Eng, 0)
			done := func() { respQ.TryPut(struct{}{}) }
			for !b.stop {
				b.submit(chain, id, done)
				respQ.Get(pr)
			}
		})
	}
}

// submit issues one request through the public ingress path. done runs
// once, on the request's first reply.
func (b *testbed) submit(chain, client int, done func()) {
	id := len(b.replied)
	b.replied = append(b.replied, false)
	due := b.c.Eng.Now()
	b.arrivals = mix(b.arrivals, uint64(chain), uint64(client), uint64(due))
	var t0 time.Time
	if b.timeSubmits {
		t0 = time.Now()
	}
	b.c.SubmitChain(b.chains[chain], client, func(ingress.Response) {
		if b.replied[id] {
			b.dupes++
			return
		}
		b.replied[id] = true
		b.replies++
		if b.recording {
			b.completions++
			b.perChain[chain]++
			b.lat = append(b.lat, b.c.Eng.Now()-due)
		}
		if done != nil {
			done()
		}
	})
	if b.timeSubmits {
		b.submitHost += time.Since(t0)
		b.submitCalls++
	}
}

// open starts a window: replies from now on are completions, and
// submissions from now on are the window's attempts.
func (b *testbed) open() {
	b.recording = true
	b.firstID = len(b.replied)
	b.endID = -1
	b.completions = 0
	b.lat = b.lat[:0]
	for i := range b.perChain {
		b.perChain[i] = 0
	}
}

// close ends the window; submissions after it are not attempts.
func (b *testbed) close() {
	b.recording = false
	b.endID = len(b.replied)
}

// unanswered counts submissions in [from, to) with no reply yet.
func (b *testbed) unanswered(from, to int) uint64 {
	var n uint64
	for _, ok := range b.replied[from:to] {
		if !ok {
			n++
		}
	}
	return n
}

// startSpread bounds the closed-loop clients' seeded start offsets.
const startSpread = time.Millisecond

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix folds words into an FNV-1a hash.
func mix(h uint64, words ...uint64) uint64 {
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= w & 0xff
			h *= fnvPrime
			w >>= 8
		}
	}
	return h
}
