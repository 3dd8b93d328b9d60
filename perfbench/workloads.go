package main

import (
	"fmt"
	"math/rand"
	"time"

	"nadino/internal/boutique"
	"nadino/internal/chaos"
	"nadino/internal/core"
	"nadino/internal/sim"
	"nadino/internal/speculate"
)

// workload is one named traffic mix driven through a core.Cluster the way
// users assemble one: core.NewCluster, SubmitChain, Eng.RunUntil.
type workload struct {
	name string
	// virtPerHostSec sizes the measured window: the virtual time one host
	// second simulates on the reference host (2-vCPU x86-64 VM). A
	// run of --seconds s therefore takes about that long there, while the
	// simulated inputs stay a function of (seed, seconds) alone.
	virtPerHostSec time.Duration
	// gateways and speculates say whether the gw.* and spec.* counters
	// must move; on the other workloads they must read exactly 0.
	gateways, speculates bool
	build                func(seed int64) *testbed
}

// Workload parameters. BENCHMARK.json and README.md quote them; change
// them only in a change that redefines the benchmark.
const (
	boutiqueClients = 64

	tenantUsers = 100_000
	// tenantOffered is under half the saturation rate of the tenants-open
	// cluster. Raising the offered rate over 100 virtual ms: 130K req/s
	// still completes in full (max latency 0.6 ms), while at 150K only
	// 135K complete and latency grows without bound (16 ms max).
	tenantOffered = 60_000 // req/s, virtual

	fabricClients = 48
	fabricNodes   = 4
	// faultEvery spaces the fabric-chaos straggler schedule.
	faultEvery = 2 * time.Millisecond
)

var workloads = []workload{
	{
		name:           "boutique-closed",
		virtPerHostSec: 250 * time.Millisecond,
		build:          boutiqueClosed,
	},
	{
		name:           "tenants-open",
		virtPerHostSec: 220 * time.Millisecond,
		build:          tenantsOpen,
	},
	{
		name:           "fabric-chaos",
		virtPerHostSec: 140 * time.Millisecond,
		gateways:       true,
		speculates:     true,
		build:          fabricChaos,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// boutiqueClosed is the paper's end-to-end application (§4.3) under a
// closed loop: each client Proc waits for its reply before resubmitting.
func boutiqueClosed(seed int64) *testbed {
	b := newTestbed(boutique.ClusterConfig(core.NadinoDNE, seed), seed, boutique.MeasuredChains())
	b.closedLoop(boutiqueClients)
	return b
}

// fabricChaos shards the boutique over fabricNodes nodes with round-robin
// placement, so every adjacent hop crosses the gateway fabric, turns on
// hedged retries, and runs a seeded straggler schedule inside the window.
func fabricChaos(seed int64) *testbed {
	cfg := boutique.ShardedConfig(core.NadinoDNE, seed, fabricNodes, true)
	cfg.Speculate = speculate.Policy{Hedge: true, HedgeMin: 200 * time.Microsecond}
	b := newTestbed(cfg, seed, boutique.MeasuredChains())
	b.closedLoop(fabricClients)
	b.faults = stragglers
	return b
}

// stragglers installs one fault every faultEvery across the window,
// cycling through the fault kinds so every part of the window sees the
// same mix; magnitudes and most targets come from the workload seed.
//
// QP errors take one connection of each link on one node, and visit the
// nodes in turn, so a node is hit every 4*5*faultEvery = 40ms, longer than
// the 25ms a connection takes to repair: links degrade but are never cut.
// A cut link stalls the whole cluster (see README.md, "Known defect").
func stragglers(b *testbed, start, length time.Duration) {
	rng := rand.New(rand.NewSource(b.seed ^ 0x5eed))
	node := func() string { return b.nodes[rng.Intn(len(b.nodes))] }
	var s chaos.Schedule
	for i, at := 0, start+faultEvery; at < start+length; i, at = i+1, at+faultEvery {
		turn := b.nodes[(i/5)%len(b.nodes)]
		switch i % 5 {
		case 0:
			factor := 0.3 + 0.3*rng.Float64()
			s = append(s, chaos.Event{At: at, For: faultEvery / 2, Fault: chaos.SlowCores{Target: "gw-cores@" + node(), Factor: factor}})
		case 1:
			s = append(s, chaos.Event{At: at, For: 100*time.Microsecond + time.Duration(rng.Intn(200))*time.Microsecond, Fault: chaos.DMAStall{Target: "dma@" + node()}})
		case 2:
			s = append(s, chaos.Event{At: at, Fault: chaos.QPError{Target: "gw-qp@" + turn, Count: 1}})
		case 3:
			s = append(s, chaos.Event{At: at, Fault: chaos.QPError{Target: "qp@" + turn, Count: 1}})
		case 4:
			s = append(s, chaos.Event{At: at, For: 100*time.Microsecond + time.Duration(rng.Intn(100))*time.Microsecond, Fault: chaos.GatewayRestart{Target: "ingress"}})
		}
	}
	b.c.NewChaos(b.seed).Install(s)
}

// tenantWeights are the Fig. 15 DWRR weights.
var tenantWeights = []core.TenantSpec{{Name: "t1", Weight: 6}, {Name: "t2", Weight: 1}, {Name: "t3", Weight: 2}}

// tenantsConfig gives each tenant one two-function chain whose entry runs
// on node1 and whose callee runs on node2, so every request makes one
// cross-node round trip.
func tenantsConfig(seed int64) core.Config {
	cfg := core.Config{
		System:         core.NadinoDNE,
		Tenant:         tenantWeights[0].Name,
		Tenants:        tenantWeights,
		Nodes:          []string{"node1", "node2"},
		IngressWorkers: 2,
		IngressMax:     2,
		Seed:           seed,
	}
	for _, t := range tenantWeights {
		front, back := t.Name+"-front", t.Name+"-back"
		cfg.Functions = append(cfg.Functions,
			core.FunctionSpec{Name: front, Tenant: t.Name, Node: "node1", Service: 5 * time.Microsecond},
			core.FunctionSpec{Name: back, Tenant: t.Name, Node: "node2", Service: 5 * time.Microsecond})
		cfg.Chains = append(cfg.Chains, core.ChainSpec{
			Name: t.Name, Tenant: t.Name, Entry: front, ReqBytes: 512, RespBytes: 512,
			Calls: []core.Call{{Callee: back, ReqBytes: 512, RespBytes: 512}},
		})
	}
	return cfg
}

// tenantsOpen models tenantUsers independent users as engine timer
// callbacks (no Proc each): a user submits, then thinks for an
// exponential time regardless of the reply, so the offered rate is fixed
// at tenantOffered and about tenantUsers timers stay pending.
func tenantsOpen(seed int64) *testbed {
	var chains []string
	var owner []int // a user belongs to a tenant in proportion to its weight
	for i, t := range tenantWeights {
		chains = append(chains, t.Name)
		for k := 0; k < t.Weight; k++ {
			owner = append(owner, i)
		}
	}
	b := newTestbed(tenantsConfig(seed), seed, chains)
	think := float64(tenantUsers) / tenantOffered * float64(time.Second)
	eng := b.c.Eng
	eng.Spawn("population", func(pr *sim.Proc) {
		b.c.WaitReady(pr)
		for u := 0; u < tenantUsers; u++ {
			u, chain := u, owner[u%len(owner)]
			var arrive func()
			arrive = func() {
				if b.stop {
					return
				}
				b.submit(chain, u, nil)
				eng.After(b.think(think), arrive)
			}
			eng.After(b.think(think), arrive)
		}
	})
	return b
}

// think draws one exponential think time with the given mean (ns).
func (b *testbed) think(mean float64) time.Duration {
	return time.Duration(b.rng.ExpFloat64()*mean) + 1
}
