package simtest

import (
	"errors"
	"fmt"
	"time"

	"nadino/internal/chaos"
	"nadino/internal/core"
	"nadino/internal/fabric"
	"nadino/internal/flightrec"
	"nadino/internal/ingress"
	"nadino/internal/mempool"
	"nadino/internal/sim"
	"nadino/internal/telemetry"
	"nadino/internal/trace"
	"nadino/internal/workload"
)

// tenantRig is one tenant's load driver state and request ledger.
type tenantRig struct {
	sc      TenantScenario
	cliNode string

	// Ledger: issued counts requests submitted to the ingress, completed
	// counts requests answered; dupReplies counts answers past the first.
	issued, completed, dupReplies uint64

	// windowCompleted is the completion count inside the measured load
	// window (captured for the fairness invariant).
	windowBase, windowCompleted uint64

	// compCounter feeds the telemetry-consistency invariant.
	compCounter *telemetry.Counter
}

// inFlight reports requests submitted but not yet answered.
func (tr *tenantRig) inFlight() uint64 { return tr.issued - tr.completed }

// Rig is one scenario's world: the core.Cluster its Config assembles, the
// chaos schedule and load drivers around it, and the harness-side ledger
// the invariant registry reads next to the cluster's own state.
type Rig struct {
	sc    Scenario
	c     *core.Cluster
	eng   *sim.Engine
	nodes []string

	tenants []*tenantRig
	inj     *chaos.Injector

	tracer  *trace.Tracer
	reg     *telemetry.Registry
	scraper *telemetry.Scraper

	// Flight recorder: always on, ring-buffered, kept out of Report so
	// fingerprints stay stable; dumped into Result.FlightDump on failure.
	rec      *flightrec.Recorder
	invActor uint16

	cores []*sim.Processor

	warm, loadEnd, endAt time.Duration

	// Ownership-auditor results (Transfers > 0).
	auditOps  int
	auditErrs []string

	// Invariant checker state.
	lastNow    time.Duration
	lastBusy   []time.Duration
	violations []Violation
	tripped    map[string]bool
}

// scrapePeriod samples telemetry often enough for ~100 points per run.
const scrapePeriod = 2 * time.Millisecond

// NewRig builds the scenario's cluster and drivers on a fresh engine.
// Nothing runs until Run (or a caller-driven RunUntil) advances the clock.
func NewRig(sc Scenario) *Rig {
	cfg := sc.Config()
	cfg.Tracer = trace.New(nil)
	cfg.Tracer.SetLimit(0)
	c := core.NewCluster(cfg)
	r := &Rig{
		sc:      sc,
		c:       c,
		eng:     c.Eng,
		nodes:   c.NodeNames(),
		tracer:  cfg.Tracer,
		reg:     telemetry.NewRegistry(),
		rec:     flightrec.New(4096, c.Eng.Now),
		cores:   c.Processors(),
		tripped: make(map[string]bool),
	}
	r.invActor = r.rec.Actor("invariant")
	r.warm = c.P.QPSetupTime + 2*time.Millisecond
	r.loadEnd = r.warm + sc.Load
	r.endAt = r.loadEnd + sc.Drain

	for _, ts := range sc.Tenants {
		tr := &tenantRig{sc: ts, cliNode: r.nodes[ts.CliNode]}
		tr.compCounter = r.reg.Counter("fuzz.completed", "tenant", ts.Name)
		pool := c.Pool(tr.cliNode, ts.Name)
		r.reg.Gauge("fuzz.pool_in_use", func() float64 { return float64(pool.InUse()) },
			"tenant", ts.Name, "node", tr.cliNode)
		r.tenants = append(r.tenants, tr)
	}
	for _, node := range r.nodes {
		worker := c.Engine(node).WorkerCore()
		r.reg.Rate("fuzz.worker_busy", func() float64 { return worker.BusyTime().Seconds() }, "node", node)
	}
	// Connection pools exist only once setup is done; the recorder then
	// covers their QP errors and repairs too.
	r.eng.Spawn("simtest-recorder", func(pr *sim.Proc) {
		c.WaitReady(pr)
		c.AttachFlightRecorder(r.rec)
	})

	r.inj = c.NewChaos(sc.Seed)
	r.inj.SetFlightRecorder(r.rec)
	r.installFaults()
	r.spawnWorkloads()
	if sc.Transfers > 0 {
		r.spawnAuditor()
	}
	if sc.Defect == DefectLeakBuffer {
		tr := r.tenants[0]
		r.eng.At(r.warm, func() {
			if _, err := c.Pool(tr.cliNode, tr.sc.Name).Get("leak"); err != nil {
				panic(err)
			}
		})
	}
	r.scraper = r.reg.Scrape(r.eng, scrapePeriod)

	// Fairness window bounds.
	r.eng.At(r.warm, func() {
		for _, tr := range r.tenants {
			tr.windowBase = tr.completed
		}
	})
	r.eng.At(r.loadEnd, func() {
		for _, tr := range r.tenants {
			tr.windowCompleted = tr.completed - tr.windowBase
		}
	})
	return r
}

// installFaults maps the scenario's FaultSpecs onto chaos events over the
// cluster's standard targets. Spec times are relative to the start of the
// load window.
func (r *Rig) installFaults() {
	var sched chaos.Schedule
	nodeIDs := make([]fabric.NodeID, len(r.nodes))
	for i, n := range r.nodes {
		nodeIDs[i] = fabric.NodeID(n)
	}
	for _, f := range r.sc.Faults {
		at := r.warm + f.At
		node := nodeIDs[f.Node%len(nodeIDs)]
		switch f.Kind {
		case FaultLinkStorm:
			// Outages are capped well inside the transport-retry horizon
			// so a storm degrades but never strands traffic.
			sched = append(sched, r.inj.LinkStorm(nodeIDs, at, f.For, f.Count, 2*time.Millisecond)...)
		case FaultQPError:
			sched = append(sched, chaos.Event{At: at,
				Fault: chaos.QPError{Target: "qp@" + string(node), Count: f.Count}})
			if r.sc.Gateways {
				sched = append(sched, chaos.Event{At: at,
					Fault: chaos.QPError{Target: "gw-qp@" + string(node), Count: f.Count}})
			}
		case FaultNodeCrash:
			sched = append(sched, chaos.Event{At: at, For: f.For,
				Fault: chaos.NodeCrash{Node: node, QPs: "crash@" + string(node)}})
		case FaultDMAStall:
			sched = append(sched, chaos.Event{At: at, For: f.For,
				Fault: chaos.DMAStall{Target: "dma@" + string(node)}})
		case FaultSlowCores:
			sched = append(sched, chaos.Event{At: at, For: f.For,
				Fault: chaos.SlowCores{Target: "cores@" + string(node), Factor: f.Factor}})
		case FaultPartition:
			var rest []fabric.NodeID
			for _, id := range nodeIDs {
				if id != node {
					rest = append(rest, id)
				}
			}
			sched = append(sched, chaos.Event{At: at, For: f.For,
				Fault: chaos.Partition{A: []fabric.NodeID{node}, B: rest}})
		default:
			panic(fmt.Sprintf("simtest: unknown fault kind %q", f.Kind))
		}
	}
	r.inj.Install(sched)
}

// submit sends one request of tr's chain through the ingress; done, when
// set, runs on its first answer. Answers past the first are counted.
func (r *Rig) submit(tr *tenantRig, client int, done func()) {
	tr.issued++
	answered := false
	r.c.SubmitChain(tr.sc.Name, client, func(ingress.Response) {
		if answered {
			tr.dupReplies++
			return
		}
		answered = true
		tr.completed++
		tr.compCounter.Add(1)
		if done != nil {
			done()
		}
	})
}

// spawnWorkloads starts each tenant's driver: closed loop, open loop or
// Poisson trace.
func (r *Rig) spawnWorkloads() {
	for _, tr := range r.tenants {
		switch tr.sc.Load {
		case LoadClosed:
			r.spawnClosedClients(tr)
		case LoadOpen:
			r.spawnOpenLoop(tr)
		case LoadPoisson:
			r.spawnPoisson(tr)
		default:
			panic(fmt.Sprintf("simtest: unknown load kind %q", tr.sc.Load))
		}
	}
}

// spawnClosedClients runs the tenant's closed-loop clients: each submits
// and waits for the answer before the next request.
func (r *Rig) spawnClosedClients(tr *tenantRig) {
	for i := 0; i < tr.sc.Clients; i++ {
		client := i
		r.eng.Spawn(fmt.Sprintf("cli-%s-%d", tr.sc.Name, i), func(pr *sim.Proc) {
			r.c.WaitReady(pr)
			answered := sim.NewQueue[struct{}](r.eng, 0)
			for pr.Now() < r.loadEnd {
				// Think-time jitter decorrelates the lockstep clients.
				pr.Sleep(time.Duration(r.eng.Rand().Intn(3000)) * time.Nanosecond)
				r.submit(tr, client, func() { answered.TryPut(struct{}{}) })
				answered.Get(pr)
			}
		})
	}
}

// spawnOpenLoop submits one request every Every until the load window
// ends, never waiting for answers.
func (r *Rig) spawnOpenLoop(tr *tenantRig) {
	r.eng.Spawn("open-"+tr.sc.Name, func(pr *sim.Proc) {
		r.c.WaitReady(pr)
		for {
			pr.Sleep(tr.sc.Every)
			if pr.Now() >= r.loadEnd {
				return
			}
			r.submit(tr, 0, nil)
		}
	})
}

// spawnPoisson submits on a workload.TraceGen arrival process (Poisson with
// a mild diurnal swing) while the cluster is up and the window is open.
func (r *Rig) spawnPoisson(tr *tenantRig) {
	gen := &workload.TraceGen{
		Chains:           []string{tr.sc.Name},
		ZipfS:            1.0,
		BaseRPS:          tr.sc.RPS,
		DiurnalAmplitude: 0.3,
		Period:           r.sc.Load,
	}
	_, hook := gen.Start(r.eng)
	hook(func(string) {
		if r.c.Ready() && r.eng.Now() < r.loadEnd {
			r.submit(tr, 0, nil)
		}
	})
}

// spawnAuditor interleaves cross-tenant ownership transfers with the load
// on the first tenant's entry-node pool: each chain moves a buffer from an
// auditor actor to a foreign tenant's actor and back, checking every access
// rule along the way. Unexpected outcomes are recorded as ownership-audit
// findings.
func (r *Rig) spawnAuditor() {
	tr := r.tenants[0]
	pool := r.c.Pool(tr.cliNode, tr.sc.Name)
	ownerA := mempool.Owner("aud-" + tr.sc.Name)
	foreign := "ghost"
	if len(r.tenants) > 1 {
		foreign = r.tenants[1].sc.Name
	}
	ownerB := mempool.Owner("aud-x-" + foreign)
	fail := func(format string, args ...any) {
		if len(r.auditErrs) < 8 {
			r.auditErrs = append(r.auditErrs, fmt.Sprintf(format, args...))
		}
	}
	r.eng.Spawn("auditor", func(pr *sim.Proc) {
		r.c.WaitReady(pr)
		for i := 0; i < r.sc.Transfers && pr.Now() < r.loadEnd; i++ {
			pr.Sleep(time.Duration(50+r.eng.Rand().Intn(200)) * time.Microsecond)
			b, err := pool.Get(ownerA)
			if err != nil {
				continue // pool squeezed by the data plane; not a finding
			}
			if err := pool.Transfer(b, ownerA, ownerB); err != nil {
				fail("transfer %v->%v: %v", ownerA, ownerB, err)
			}
			if err := pool.Access(b, ownerB); err != nil {
				fail("new owner denied access: %v", err)
			}
			if err := pool.Access(b, ownerA); !errors.Is(err, mempool.ErrNotOwner) {
				fail("stale owner retained access: err=%v", err)
			}
			if err := pool.Transfer(b, ownerB, ownerA); err != nil {
				fail("transfer back: %v", err)
			}
			if err := pool.Put(b, ownerA); err != nil {
				fail("put: %v", err)
			}
			if err := pool.Access(b, ownerA); !errors.Is(err, mempool.ErrStaleBuffer) {
				fail("use after free not detected: err=%v", err)
			}
			r.auditOps++
		}
	})
}

// drops sums every counter that accounts a request as given up: DNE no-route,
// no-port and retry-budget drops, gateway drops, ingress backend drops and
// ingress overload sheds.
func (r *Rig) drops() uint64 {
	n := r.c.IngressDrops() + r.c.Gateway().Dropped()
	for _, node := range r.nodes {
		_, _, noRoute, noPort, _ := r.c.Engine(node).Stats()
		_, retryDropped := r.c.Engine(node).RetryStats()
		n += noRoute + noPort + retryDropped
		if gw := r.c.NodeGateway(node); gw != nil {
			n += gw.Stats().Dropped
		}
	}
	return n
}
