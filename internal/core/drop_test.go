package core

import (
	"testing"
	"time"

	"nadino/internal/chaos"
	"nadino/internal/fabric"
	"nadino/internal/ingress"
	"nadino/internal/mempool"
	"nadino/internal/sim"
)

// countedDrops sums every counter that accounts a request as given up.
func countedDrops(c *Cluster) uint64 {
	n := c.IngressDrops() + c.Gateway().Dropped()
	for _, node := range c.NodeNames() {
		_, _, noRoute, noPort, _ := c.Engine(node).Stats()
		_, retryDropped := c.Engine(node).RetryStats()
		n += noRoute + noPort + retryDropped
		if gw := c.NodeGateway(node); gw != nil {
			n += gw.Stats().Dropped
		}
	}
	return n
}

// checkQuiesced requires every handler idle and every node pool home: the
// only buffers in use are the receive rings and gateway landing windows.
func checkQuiesced(t *testing.T, c *Cluster) {
	t.Helper()
	for _, f := range c.fnSeq {
		if f.inflight != 0 {
			t.Errorf("%s: inflight %d at quiesce", f.name, f.inflight)
		}
	}
	for _, node := range c.NodeNames() {
		for _, ts := range c.tenants {
			pool := c.Pool(node, ts.Name)
			held := c.Engine(node).SRQ(ts.Name).Posted()
			if gw := c.NodeGateway(node); gw != nil {
				held += gw.SlotsHeld(ts.Name)
			}
			if err := pool.Audit(); err != nil {
				t.Errorf("%s@%s: %v", ts.Name, node, err)
			} else if pool.InUse() != held {
				t.Errorf("%s@%s: %d buffers in use at quiesce, want the %d of the ring and gateway window",
					ts.Name, node, pool.InUse(), held)
			}
		}
	}
}

// TestIngressSendErrorsAreCountedDrops errors the ingress backend's QPs
// toward the entry node mid-load: every request whose send fails must be
// counted as a drop with its inflight slot returned, and the connections
// must come back so later requests are answered.
func TestIngressSendErrorsAreCountedDrops(t *testing.T) {
	c := NewCluster(testConfig(NadinoDNE))
	t.Cleanup(c.Eng.Stop)
	base := c.P.QPSetupTime
	loadEnd := base + 60*time.Millisecond
	var submitted, answered, answeredLate uint64
	c.Eng.Spawn("open-loop", func(pr *sim.Proc) {
		c.WaitReady(pr)
		for pr.Now() < loadEnd {
			pr.Sleep(40 * time.Microsecond)
			submitted++
			c.SubmitChain("mix", 0, func(r ingress.Response) {
				answered++
				if r.Stamp > base+40*time.Millisecond {
					answeredLate++
				}
			})
		}
	})
	c.Eng.At(base+10*time.Millisecond, func() {
		c.rdmaBE.tenant(mempool.Intern(c.cfg.Tenant)).conns["node1"].ForceError(0)
	})
	c.Eng.RunUntil(loadEnd + 200*time.Millisecond)

	if c.rdmaBE.sendErrors == 0 {
		t.Fatal("no ingress send failed; the test did not exercise the path")
	}
	if drops := countedDrops(c); submitted != answered+drops {
		t.Errorf("submitted %d != answered %d + counted drops %d (ingress send errors %d)",
			submitted, answered, drops, c.rdmaBE.sendErrors)
	}
	if answeredLate == 0 {
		t.Error("nothing answered after the errored connections should have been repaired")
	}
	checkQuiesced(t, c)
}

// TestDroppedCallFreesItsCaller errors every QP of the callee's node while
// a link storm runs, so the DNE spends its retry budget and drops calls and
// responses. The waiting handlers must fail instead of blocking: at quiesce
// every pool is home and no handler is inflight, and every unanswered
// request is a counted drop.
func TestDroppedCallFreesItsCaller(t *testing.T) {
	c := NewCluster(testConfig(NadinoDNE))
	t.Cleanup(c.Eng.Stop)
	in := c.NewChaos(11)
	base := c.P.QPSetupTime
	sched := chaos.Schedule{
		{At: base + 10*time.Millisecond, Fault: chaos.QPError{Target: "qp@node2", Count: 0}},
	}
	sched = append(sched, in.LinkStorm([]fabric.NodeID{"node1", "node2"},
		base+8*time.Millisecond, 5*time.Millisecond, 8, 2*time.Millisecond)...)
	in.Install(sched)

	loadEnd := base + 40*time.Millisecond
	var submitted, answered uint64
	for i := 0; i < 16; i++ {
		id := i
		c.Eng.Spawn("client", func(pr *sim.Proc) {
			c.WaitReady(pr)
			respQ := sim.NewQueue[struct{}](c.Eng, 0)
			for pr.Now() < loadEnd {
				submitted++
				c.SubmitChain("mix", id, func(ingress.Response) {
					answered++
					respQ.TryPut(struct{}{})
				})
				respQ.Get(pr)
			}
		})
	}
	c.Eng.RunUntil(loadEnd + 250*time.Millisecond)

	if _, dropped := c.Engine("node2").RetryStats(); dropped == 0 {
		t.Fatal("no retry-budget drop on node2; the test did not exercise the path")
	}
	if drops := countedDrops(c); submitted > answered+drops {
		t.Errorf("submitted %d > answered %d + counted drops %d", submitted, answered, drops)
	}
	checkQuiesced(t, c)
}
