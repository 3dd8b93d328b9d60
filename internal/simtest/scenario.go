// Package simtest is the repository's deterministic-simulation fuzzer, in
// the FoundationDB tradition: a seeded scenario generator composes random
// topologies, tenant mixes, workloads and chaos schedules; each scenario
// maps onto a core.Config and runs on core.Cluster — the assembly users
// run, ingress speculation included; a global invariant registry checks
// system-wide properties (buffer conservation, request conservation, QP
// legality, fairness, clock monotonicity, telemetry/trace consistency) at
// event boundaries and at end of run; and a shrinker reduces failing
// scenarios to minimal counterexamples by bisecting the fault schedule and
// the workload duration.
//
// Everything is a pure function of the scenario seed: a failing seed
// reported by the sweep (`nadino-bench -run fuzz`) reproduces
// byte-identically with `-seed <s> -fuzz-seeds 1`, sequentially or sharded.
package simtest

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"nadino/internal/core"
	"nadino/internal/speculate"
)

// genSalt decorrelates the generator's RNG from the engine and chaos RNGs
// that consume the same seed.
const genSalt int64 = 0x73696d74657374 // "simtest"

// Workload kinds for one tenant.
const (
	// LoadClosed drives N closed-loop clients (each waits for its answer
	// before submitting the next request).
	LoadClosed = "closed"
	// LoadOpen submits one request every Every, never waiting.
	LoadOpen = "open"
	// LoadPoisson draws Poisson arrivals at RPS via workload.TraceGen.
	LoadPoisson = "poisson"
)

// TenantScenario is one tenant's slice of a generated scenario: a
// cli-<Name> entry function on CliNode that calls srv-<Name> on SrvNode,
// driven through the ingress as chain <Name>.
type TenantScenario struct {
	Name   string
	Weight int
	// CliNode hosts the tenant's entry function, SrvNode the function it
	// calls.
	CliNode, SrvNode int

	Load    string        // LoadClosed, LoadOpen or LoadPoisson
	Clients int           // closed-loop client count (LoadClosed)
	Every   time.Duration // open-loop send period (LoadOpen)
	RPS     float64       // Poisson arrival rate (LoadPoisson)
	Payload int           // request/response bytes
}

// Fault kinds a scenario can schedule (mapped onto internal/chaos faults by
// the runner).
const (
	FaultLinkStorm = "link-storm"
	FaultQPError   = "qp-error"
	FaultNodeCrash = "node-crash"
	FaultDMAStall  = "dma-stall"
	FaultSlowCores = "slow-cores"
	FaultPartition = "partition"
)

// FaultSpec is one declarative fault event. At is relative to the start of
// the load window (after QP setup and warmup), so shrinking the load does
// not silently move faults out of the run.
type FaultSpec struct {
	Kind   string
	At     time.Duration
	For    time.Duration
	Node   int     // target node index
	Count  int     // storm events or QPs to error
	Factor float64 // slow-cores speed factor
}

func (f FaultSpec) String() string {
	switch f.Kind {
	case FaultLinkStorm:
		return fmt.Sprintf("%s(n=%d at=%v span=%v)", f.Kind, f.Count, f.At, f.For)
	case FaultQPError:
		return fmt.Sprintf("%s(node%d n=%d at=%v)", f.Kind, f.Node, f.Count, f.At)
	case FaultSlowCores:
		return fmt.Sprintf("%s(node%d x%.2f at=%v for=%v)", f.Kind, f.Node, f.Factor, f.At, f.For)
	default:
		return fmt.Sprintf("%s(node%d at=%v for=%v)", f.Kind, f.Node, f.At, f.For)
	}
}

// Scenario is one fully-specified fuzz case: everything the runner needs to
// rebuild the same world, derived from Seed by Generate. The fields are
// plain values so the shrinker can perturb them and tests can construct
// scenarios directly; Config maps them onto a core.Config.
type Scenario struct {
	Seed   int64
	Nodes  int         // worker nodes (2 or 3)
	System core.System // core.NadinoDNE or core.NadinoCNE

	// PoolBuffers and BufSize dimension every tenant pool (core.Config).
	PoolBuffers, BufSize int

	// Load is the driven window after warmup; Drain keeps the cluster
	// alive afterwards so retries, repairs and buffers come home before
	// the final invariant pass.
	Load  time.Duration
	Drain time.Duration

	Tenants []TenantScenario
	Faults  []FaultSpec

	// Transfers > 0 runs an ownership auditor that interleaves that many
	// cross-tenant mempool.Transfer chains with the data-plane load.
	Transfers int

	// Defect plants a deliberate bug on the harness side so the invariant
	// registry has something to catch (tests and demos): "leak-buffer"
	// takes one buffer from a cluster pool and never returns it.
	Defect string

	// Gateways routes cross-node hops through the per-node gateway tier
	// (internal/gateway), putting route-table failover and the
	// landing-window credit protocol under the invariant registry
	// (route-consistency).
	Gateways bool

	// Speculate is the ingress speculation policy: clone-to-N and hedged
	// retries, cancelled mid-plane or suppressed at the ingress boundary
	// (speculation-safety invariant).
	Speculate speculate.Policy
	// PSCores runs every function core processor-sharing instead of FCFS
	// (sim.PS), putting the PS quantum re-arm path under the fuzzer.
	PSCores bool
}

// Speculative reports whether the scenario fires more than one arm per
// request (cloning or hedging).
func (sc Scenario) Speculative() bool { return sc.Speculate.Enabled() }

// nodeName names scenario node i in the cluster.
func nodeName(i int) string { return fmt.Sprintf("node%c", 'A'+i) }

// Config maps the scenario onto the cluster it runs on.
func (sc Scenario) Config() core.Config {
	cfg := core.Config{
		System:      sc.System,
		Tenant:      sc.Tenants[0].Name,
		PoolBuffers: sc.PoolBuffers,
		BufSize:     sc.BufSize,
		Gateways:    sc.Gateways,
		Speculate:   sc.Speculate,
		PSCores:     sc.PSCores,
		Seed:        sc.Seed,
	}
	for i := 0; i < sc.Nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, nodeName(i))
	}
	for _, t := range sc.Tenants {
		cli, srv := "cli-"+t.Name, "srv-"+t.Name
		cfg.Tenants = append(cfg.Tenants, core.TenantSpec{Name: t.Name, Weight: t.Weight})
		cfg.Functions = append(cfg.Functions,
			core.FunctionSpec{Name: cli, Tenant: t.Name, Node: cfg.Nodes[t.CliNode]},
			core.FunctionSpec{Name: srv, Tenant: t.Name, Node: cfg.Nodes[t.SrvNode]})
		cfg.Chains = append(cfg.Chains, core.ChainSpec{
			Name: t.Name, Tenant: t.Name, Entry: cli,
			ReqBytes: t.Payload, RespBytes: t.Payload,
			Calls: []core.Call{{Callee: srv, ReqBytes: t.Payload, RespBytes: t.Payload}},
		})
	}
	return cfg
}

// DefectLeakBuffer is the planted harness bug used to prove the fuzzer
// catches (and shrinks) invariant violations.
const DefectLeakBuffer = "leak-buffer"

// tenantNames label generated tenants.
var tenantNames = []string{"amber", "basil", "coral"}

// poolQPs is the RC connection count core.Cluster establishes per tenant
// link; a qp-error fault errors up to that many (0 = all).
const poolQPs = 8

// Generate derives a scenario from seed. Same seed, same scenario — the
// whole fuzz contract hangs on this being a pure function.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed ^ genSalt))
	sc := Scenario{
		Seed:   seed,
		Nodes:  2 + rng.Intn(2),
		System: core.NadinoDNE,
		// Above the ingress ring's need, with room for every plausible
		// in-flight buffer on top of the receive rings.
		PoolBuffers: core.MinPoolBuffers + 128 + rng.Intn(1024),
		BufSize:     4096 << rng.Intn(2),
		Load:        8*time.Millisecond + time.Duration(rng.Intn(22))*time.Millisecond,
		Drain:       200 * time.Millisecond,
	}
	if rng.Intn(4) == 0 {
		sc.System = core.NadinoCNE
	}

	// Symmetric scenarios share one node pair with identical tenants —
	// the fairness-eligible shape the DWRR invariant can bound tightly.
	symmetric := rng.Intn(2) == 0
	nTenants := 1 + rng.Intn(3)
	if symmetric {
		nTenants = 2 + rng.Intn(2)
	}
	payload := 64 << rng.Intn(7) // 64B..4KB
	weight := 1 + rng.Intn(4)
	clients := 4 + rng.Intn(13)
	for i := 0; i < nTenants; i++ {
		ts := TenantScenario{
			Name:    tenantNames[i],
			Weight:  weight,
			CliNode: 0,
			SrvNode: 1,
			Load:    LoadClosed,
			Clients: clients,
			Payload: payload,
		}
		if !symmetric {
			ts.Weight = 1 + rng.Intn(4)
			ts.Payload = 64 << rng.Intn(7)
			ts.CliNode = rng.Intn(sc.Nodes)
			ts.SrvNode = (ts.CliNode + 1 + rng.Intn(sc.Nodes-1)) % sc.Nodes
			switch rng.Intn(4) {
			case 0:
				ts.Load = LoadOpen
				ts.Clients = 0
				ts.Every = time.Duration(40+rng.Intn(360)) * time.Microsecond
			case 1:
				ts.Load = LoadPoisson
				ts.Clients = 0
				ts.RPS = 2000 + 2000*float64(rng.Intn(8))
			default:
				ts.Clients = 1 + rng.Intn(16)
			}
		}
		sc.Tenants = append(sc.Tenants, ts)
	}

	// Fault schedule: half the scenarios run fault-free (so the strict
	// no-loss invariants get coverage), the rest draw 1-3 events confined
	// to the middle of the load window. Outages are kept short enough for
	// the transport-retry plus engine-retry horizon, so every scenario
	// must quiesce clean.
	if rng.Intn(2) == 1 {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			at := sc.Load/8 + time.Duration(rng.Int63n(int64(sc.Load/2)))
			f := FaultSpec{At: at, Node: rng.Intn(sc.Nodes)}
			switch rng.Intn(6) {
			case 0:
				f.Kind = FaultLinkStorm
				f.Count = 3 + rng.Intn(8)
				f.For = 2*time.Millisecond + time.Duration(rng.Intn(4))*time.Millisecond
			case 1:
				f.Kind = FaultQPError
				f.Count = rng.Intn(poolQPs + 1) // 0 = all
			case 2:
				f.Kind = FaultNodeCrash
				f.For = time.Duration(500+rng.Intn(4500)) * time.Microsecond
			case 3:
				f.Kind = FaultDMAStall
				f.For = time.Duration(200+rng.Intn(1800)) * time.Microsecond
			case 4:
				f.Kind = FaultSlowCores
				f.For = 1*time.Millisecond + time.Duration(rng.Intn(4))*time.Millisecond
				f.Factor = 0.25 + 0.5*rng.Float64()
			default:
				f.Kind = FaultPartition
				f.For = time.Duration(500+rng.Intn(3000)) * time.Microsecond
			}
			sc.Faults = append(sc.Faults, f)
		}
	}
	if rng.Intn(2) == 0 {
		sc.Transfers = 8 + rng.Intn(56)
	}
	sc.Gateways = rng.Intn(2) == 0
	if rng.Intn(3) == 0 {
		sc.Speculate.CloneN = 2 + rng.Intn(2)
	}
	if rng.Intn(3) == 0 {
		sc.Speculate.Hedge = true
		sc.Speculate.HedgeMin = time.Duration(150+rng.Intn(600)) * time.Microsecond
	}
	sc.PSCores = rng.Intn(4) == 0
	return sc
}

// Symmetric reports whether the scenario is fairness-eligible: every tenant
// closed-loop on the same node pair with the same weight, client count and
// payload, so DWRR must split goodput evenly.
func (sc Scenario) Symmetric() bool {
	if len(sc.Tenants) < 2 {
		return false
	}
	t0 := sc.Tenants[0]
	for _, t := range sc.Tenants {
		if t.Load != LoadClosed || t.Clients != t0.Clients || t.Weight != t0.Weight ||
			t.Payload != t0.Payload || t.CliNode != t0.CliNode || t.SrvNode != t0.SrvNode {
			return false
		}
	}
	return true
}

// String renders a compact, deterministic description used in fuzz reports.
func (sc Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d nodes=%d %v pool=%dx%dB load=%v", sc.Seed, sc.Nodes,
		sc.System, sc.PoolBuffers, sc.BufSize, sc.Load)
	for _, t := range sc.Tenants {
		fmt.Fprintf(&b, " %s[n%d>n%d w%d %s", t.Name, t.CliNode, t.SrvNode, t.Weight, t.Load)
		switch t.Load {
		case LoadClosed:
			fmt.Fprintf(&b, " c%d", t.Clients)
		case LoadOpen:
			fmt.Fprintf(&b, " every=%v", t.Every)
		case LoadPoisson:
			fmt.Fprintf(&b, " rps=%.0f", t.RPS)
		}
		fmt.Fprintf(&b, " %dB]", t.Payload)
	}
	for _, f := range sc.Faults {
		fmt.Fprintf(&b, " fault=%s", f)
	}
	if sc.Transfers > 0 {
		fmt.Fprintf(&b, " transfers=%d", sc.Transfers)
	}
	if sc.Defect != "" {
		fmt.Fprintf(&b, " defect=%s", sc.Defect)
	}
	if sc.Gateways {
		b.WriteString(" gw")
	}
	if sc.Speculate.CloneN > 1 {
		fmt.Fprintf(&b, " clone=%d", sc.Speculate.CloneN)
	}
	if sc.Speculate.Hedge {
		fmt.Fprintf(&b, " hedge=%v", sc.Speculate.HedgeMin)
	}
	if sc.PSCores {
		b.WriteString(" ps")
	}
	return b.String()
}
