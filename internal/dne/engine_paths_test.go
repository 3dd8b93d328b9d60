package dne

import (
	"testing"
	"time"

	"nadino/internal/fabric"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/sim"
)

// fakeGateway is a Forwarder double: it either accepts every cross-node hop
// (recording it, as a gateway tier would before landing it remotely) or
// refuses every one, so the engine falls back to its direct QPs.
type fakeGateway struct {
	accept bool
	got    []mempool.Descriptor
	dsts   []fabric.NodeID
}

func (g *fakeGateway) ForwardRemote(d mempool.Descriptor, dst fabric.NodeID) bool {
	if !g.accept {
		return false
	}
	g.got = append(g.got, d)
	g.dsts = append(g.dsts, dst)
	return true
}

// spawnSink runs a server that consumes every descriptor delivered to srv,
// recycling its buffer, and returns the received descriptors and the time
// of the last arrival.
func (r *pairRig) spawnSink(t *testing.T) (got *[]mempool.Descriptor, last *time.Duration) {
	got, last = new([]mempool.Descriptor), new(time.Duration)
	r.eng.Spawn("srv", func(pr *sim.Proc) {
		for {
			d := r.portSrv.Recv(pr, r.coreB)
			*got = append(*got, d)
			*last = pr.Now()
			if err := r.poolB.Put(d.Buf, "srv"); err != nil {
				t.Error(err)
				return
			}
		}
	})
	return got, last
}

// send hands one fresh cli-owned buffer to the engine, addressed to dst.
// It runs inside a Proc, so failures are reported with t.Error.
func (r *pairRig) send(t *testing.T, pr *sim.Proc, dst string, spec func() bool) {
	buf, err := r.poolA.Get("cli")
	if err != nil {
		t.Error(err)
		return
	}
	d := mempool.Descriptor{
		Tenant: tenantName, Buf: buf, Len: 256, Src: cliName, Dst: mempool.Intern(dst),
		Req: &mempool.Req{Spec: spec},
	}
	if err := r.portCli.Send(pr, r.coreA, d); err != nil {
		t.Error(err)
	}
}

// TestGatewayHandOff drives both halves of the gateway tier's contract: a
// cross-node TX hop is handed to the Forwarder instead of a per-tenant QP,
// GatewayRelease recycles the source buffer, and GatewayDeliver lands a
// gateway-owned buffer at the local function (or recycles it when no such
// function is attached).
func TestGatewayHandOff(t *testing.T) {
	r := newPairRig(t, 31, params.Default())
	gw := &fakeGateway{accept: true}
	r.ea.SetForwarder(gw, "gwA")
	r.eb.SetForwarder(gw, "gwB")
	got, _ := r.spawnSink(t)
	r.eng.Spawn("cli", func(pr *sim.Proc) {
		r.ready.Get(pr)
		baseA, baseB := r.poolA.InUse(), r.poolB.InUse()
		r.send(t, pr, "srv", nil)
		pr.Sleep(time.Millisecond)
		if len(gw.got) != 1 || gw.dsts[0] != "nodeB" {
			t.Errorf("forwarder saw %d hops to %v, want 1 to nodeB", len(gw.got), gw.dsts)
			return
		}
		if r.ea.Forwarded() != 1 || len(*got) != 0 {
			t.Errorf("forwarded=%d delivered=%d, want 1 and 0", r.ea.Forwarded(), len(*got))
		}
		if r.poolA.InUse() != baseA+1 {
			t.Error("source buffer released before the gateway finished with it")
		}
		r.ea.GatewayRelease(gw.got[0])

		// Land the hop on node B as the gateway tier would.
		for _, dst := range []string{"srv", "ghost"} {
			buf, err := r.poolB.Get("gwB")
			if err != nil {
				t.Error(err)
				return
			}
			r.eb.GatewayDeliver(mempool.Descriptor{Tenant: tenantName, Buf: buf, Len: 256, Src: cliName, Dst: mempool.Intern(dst)})
		}
		pr.Sleep(time.Millisecond)
		if r.poolA.InUse() != baseA {
			t.Errorf("pool A in use = %d after GatewayRelease, want %d", r.poolA.InUse(), baseA)
		}
		if r.poolB.InUse() != baseB {
			t.Errorf("pool B in use = %d after delivery and drop, want %d", r.poolB.InUse(), baseB)
		}
	})
	r.eng.RunUntil(time.Second)
	if len(*got) != 1 || (*got)[0].Dst != srvName {
		t.Fatalf("srv received %v, want one gateway-landed descriptor", *got)
	}
	if _, rx, _, dnp, _ := r.eb.Stats(); rx != 1 || dnp != 1 {
		t.Fatalf("engine B rx=%d dropNoPort=%d, want 1 and 1", rx, dnp)
	}
}

// TestGatewayRefusalFallsBack checks that a hop the gateway tier refuses
// goes out over the engine's own per-tenant QPs.
func TestGatewayRefusalFallsBack(t *testing.T) {
	r := newPairRig(t, 32, params.Default())
	gw := &fakeGateway{accept: false}
	r.ea.SetForwarder(gw, "gwA")
	got, _ := r.spawnSink(t)
	r.eng.Spawn("cli", func(pr *sim.Proc) {
		r.ready.Get(pr)
		r.send(t, pr, "srv", nil)
	})
	r.eng.RunUntil(time.Second)
	if len(*got) != 1 || r.ea.Forwarded() != 0 {
		t.Fatalf("delivered=%d forwarded=%d, want 1 and 0", len(*got), r.ea.Forwarded())
	}
}

// TestRateLimitDefersAndDrains caps the tenant's TX rate and sends a burst
// well past the bucket: every descriptor still arrives, but the excess is
// deferred until tokens accrue, so the burst takes about (n-initial)/rate.
func TestRateLimitDefersAndDrains(t *testing.T) {
	const rps, n = 2000, 60 // the bucket starts with rps/100 = 20 tokens
	r := newPairRig(t, 33, params.Default())
	got, last := r.spawnSink(t)
	var start time.Duration
	r.eng.Spawn("cli", func(pr *sim.Proc) {
		r.ready.Get(pr)
		r.ea.SetRateLimit(rigTenant, rps)
		start = pr.Now()
		for i := 0; i < n; i++ {
			r.send(t, pr, "srv", nil)
		}
	})
	r.eng.RunUntil(time.Second)
	if len(*got) != n {
		t.Fatalf("delivered %d of %d rate-limited descriptors", len(*got), n)
	}
	if r.ea.RateDeferred() == 0 {
		t.Fatal("burst past the bucket deferred nothing")
	}
	if floor := time.Duration(n-rps/100-1) * time.Second / rps; *last-start < floor {
		t.Fatalf("burst drained in %v, want at least %v at %d req/s", *last-start, floor, rps)
	}

	r.ea.SetRateLimit(rigTenant, 0)
	if r.ea.limits.Get(tenantName) != nil {
		t.Fatal("rps 0 did not remove the tenant's limit")
	}
	// Limits on tenants the engine does not serve (yet) are kept too.
	ghost := mempool.Intern("ghost")
	r.ea.SetRateLimit("ghost", 100)
	if r.ea.limits.Get(ghost) == nil {
		t.Fatal("limit for an unregistered tenant not kept")
	}
	r.ea.SetRateLimit("ghost", 0)
	if r.ea.limits.Get(ghost) != nil {
		t.Fatal("rps 0 did not remove the unregistered tenant's limit")
	}
}

func TestTokenBucket(t *testing.T) {
	b := &tokenBucket{rate: 1000, burst: 2}
	if got := b.eta(0); got != time.Millisecond {
		t.Fatalf("empty bucket eta = %v, want 1ms", got)
	}
	if b.take(0) {
		t.Fatal("took a token from an empty bucket")
	}
	now := 10 * time.Millisecond // enough for 10 tokens; burst caps at 2
	if b.eta(now) != 0 {
		t.Fatal("eta non-zero with tokens available")
	}
	if !b.take(now) || !b.take(now) || b.take(now) {
		t.Fatal("bucket did not cap at its burst of 2")
	}
	b.refill(now - time.Millisecond) // time never runs backwards
	if b.tokens != 0 || b.last != now {
		t.Fatalf("refill into the past changed state: tokens=%g last=%v", b.tokens, b.last)
	}
	fast := &tokenBucket{rate: 1e12, burst: 1}
	if got := fast.eta(0); got != time.Microsecond {
		t.Fatalf("eta = %v, want the 1us floor", got)
	}
}

// TestSpecDropAtTxGate sends one clone whose group already completed and
// one whose group is still open: the first is killed at the TX gate with
// its buffer recycled, the second is delivered.
func TestSpecDropAtTxGate(t *testing.T) {
	r := newPairRig(t, 34, params.Default())
	got, _ := r.spawnSink(t)
	probes := 0
	r.eng.Spawn("cli", func(pr *sim.Proc) {
		r.ready.Get(pr)
		base := r.poolA.InUse()
		r.send(t, pr, "srv", func() bool { probes++; return true })
		pr.Sleep(time.Millisecond)
		if r.poolA.InUse() != base {
			t.Errorf("killed clone kept its buffer: in use %d, want %d", r.poolA.InUse(), base)
		}
		r.send(t, pr, "srv", func() bool { probes++; return false })
	})
	r.eng.RunUntil(time.Second)
	if r.ea.SpecDrops() != 1 || len(*got) != 1 || probes != 2 {
		t.Fatalf("spec drops=%d delivered=%d probes=%d, want 1, 1, 2", r.ea.SpecDrops(), len(*got), probes)
	}
}

// TestRxDropNoPortRecyclesRQBuffer routes a function to node B that node B
// does not host: B's RX stage drops the landed descriptor and returns its
// buffer from the receive queue's owner to the pool.
func TestRxDropNoPortRecyclesRQBuffer(t *testing.T) {
	r := newPairRig(t, 35, params.Default())
	r.ea.SetRoute("ghost", "nodeB")
	r.eng.Spawn("cli", func(pr *sim.Proc) {
		r.ready.Get(pr)
		r.send(t, pr, "ghost", nil)
	})
	r.eng.RunUntil(time.Second)
	if _, _, _, dnp, _ := r.eb.Stats(); dnp != 1 {
		t.Fatalf("engine B dropNoPort = %d, want 1", dnp)
	}
	if want := r.eb.SRQ(rigTenant).Posted(); r.poolB.InUse() != want {
		t.Fatalf("pool B in use = %d, want %d (posted RQ only)", r.poolB.InUse(), want)
	}
}

// TestTxDropNoConnPool routes a function to a node the engine has no
// connection pool for: the TX stage drops it and recycles the buffer.
func TestTxDropNoConnPool(t *testing.T) {
	r := newPairRig(t, 36, params.Default())
	r.ea.SetRoute("far", "nodeC")
	var base int
	r.eng.Spawn("cli", func(pr *sim.Proc) {
		r.ready.Get(pr)
		base = r.poolA.InUse()
		r.send(t, pr, "far", nil)
	})
	r.eng.RunUntil(time.Second)
	if _, _, dnr, _, _ := r.ea.Stats(); dnr != 1 {
		t.Fatalf("engine A dropNoRoute = %d, want 1", dnr)
	}
	if r.poolA.InUse() != base {
		t.Fatalf("pool A in use = %d, want %d", r.poolA.InUse(), base)
	}
}
