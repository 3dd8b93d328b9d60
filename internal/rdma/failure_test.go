package rdma

import (
	"testing"
	"time"

	"nadino/internal/chaos"
	"nadino/internal/mempool"
	"nadino/internal/params"
	"nadino/internal/sim"
)

func TestRetransmitRecoversFromLinkBlip(t *testing.T) {
	r := newRig(t, 1)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	postRecvs(t, r.poolB, r.srqB, 16)

	// Link down for 1.2ms starting just before the send.
	in := chaos.NewInjector(r.eng, r.net, 1)
	in.Install(chaos.Schedule{
		{At: 0, For: 1200 * time.Microsecond, Fault: chaos.NodeDown{Node: "nodeB"}},
	})

	var status Status = -1
	var doneAt time.Duration
	r.eng.Spawn("sender", func(p *sim.Proc) {
		src, _ := r.poolA.Get("cli")
		qa.PostSend(mempool.Descriptor{Tenant: tenantT, Buf: src, Len: 512})
		r.cqA.Wait(p)
		e := r.cqA.Poll(1)[0]
		status = e.Status
		doneAt = p.Now()
	})
	r.eng.RunUntil(time.Second)
	if status != StatusOK {
		t.Fatalf("send status = %v after link recovery, want OK", status)
	}
	if doneAt < 1200*time.Microsecond {
		t.Fatalf("completed at %v, before the link came back", doneAt)
	}
	if qa.Retransmits() == 0 {
		t.Fatal("no retransmissions recorded across the blip")
	}
	if qa.Errored() {
		t.Fatal("QP errored despite successful recovery")
	}
}

func TestPersistentOutageErrorsQP(t *testing.T) {
	r := newRig(t, 1)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	postRecvs(t, r.poolB, r.srqB, 4)
	// Permanent outage: For == 0 means the fault never reverts.
	in := chaos.NewInjector(r.eng, r.net, 1)
	in.Install(chaos.Schedule{{At: 0, Fault: chaos.NodeDown{Node: "nodeB"}}})

	var status Status = -1
	r.eng.Spawn("sender", func(p *sim.Proc) {
		src, _ := r.poolA.Get("cli")
		qa.PostSend(mempool.Descriptor{Tenant: tenantT, Buf: src, Len: 512})
		r.cqA.Wait(p)
		status = r.cqA.Poll(1)[0].Status
	})
	r.eng.RunUntil(time.Second)
	if status != StatusRetryExceeded {
		t.Fatalf("status = %v, want StatusRetryExceeded", status)
	}
	if !qa.Errored() {
		t.Fatal("QP not in error state after retry exhaustion")
	}
	// New posts on the errored QP flush immediately with an error.
	var flushed Status = -1
	r.eng.Spawn("late-sender", func(p *sim.Proc) {
		src, _ := r.poolA.Get("cli")
		qa.PostSend(mempool.Descriptor{Tenant: tenantT, Buf: src, Len: 64})
		r.cqA.Wait(p)
		flushed = r.cqA.Poll(1)[0].Status
	})
	r.eng.RunUntil(2 * time.Second)
	if flushed != StatusQPError {
		t.Fatalf("post on errored QP = %v, want StatusQPError", flushed)
	}
}

func TestConnPoolRepairsErroredQPs(t *testing.T) {
	r := newRig(t, 1)
	// Outage from pool establishment until t=50ms: long enough to error the
	// first QP. The revert fires inside RunUntil (inclusive), so the link is
	// back before Repair runs — same sequencing as the manual SetDown rig.
	in := chaos.NewInjector(r.eng, r.net, 1)
	in.Install(chaos.Schedule{{
		At: r.p.QPSetupTime, For: 50*time.Millisecond - r.p.QPSetupTime,
		Fault: chaos.NodeDown{Node: "nodeB"},
	}})
	var pa *ConnPool
	r.eng.Spawn("setup", func(p *sim.Proc) {
		pa, _ = EstablishPair(p, r.p, "t", r.ra, r.rb, 4, r.srqA, r.srqB, r.cqA, r.cqB)
		postRecvs(t, r.poolB, r.srqB, 64)
		src, _ := r.poolA.Get("cli")
		pa.Pick().PostSend(mempool.Descriptor{Tenant: tenantT, Buf: src, Len: 64})
	})
	r.eng.RunUntil(50 * time.Millisecond)
	errored := 0
	for _, qp := range pa.Conns() {
		if qp.Errored() {
			errored++
		}
	}
	if errored == 0 {
		t.Fatal("no QP errored during the outage")
	}
	if n := pa.Repair(); n == 0 {
		t.Fatal("Repair found nothing to fix")
	}
	r.eng.RunUntil(r.eng.Now() + 2*r.p.QPSetupTime)
	for _, qp := range pa.Conns() {
		if qp.Errored() {
			t.Fatal("QP still errored after repair window")
		}
	}
	if pa.Repairs() == 0 {
		t.Fatal("repair counter not incremented")
	}
	// And the repaired pool carries traffic again.
	var ok bool
	r.eng.Spawn("verify", func(p *sim.Proc) {
		src, _ := r.poolA.Get("cli")
		pa.Pick().PostSend(mempool.Descriptor{Tenant: tenantT, Buf: src, Len: 64})
		r.cqB.Wait(p)
		for _, e := range r.cqB.Poll(0) {
			if e.Op == OpRecv {
				ok = true
			}
		}
	})
	r.eng.RunUntil(r.eng.Now() + 100*time.Millisecond)
	if !ok {
		t.Fatal("repaired pool did not deliver")
	}
}

func TestRetransmitTimerDoesNotDuplicate(t *testing.T) {
	// Normal (lossless) operation: retransmit timers must never fire and
	// receivers must see exactly one delivery per send.
	p := params.Default()
	r := newRig(t, 1)
	qa, _ := Connect(r.ra, r.rb, "t", r.srqA, r.srqB, r.cqA, r.cqB)
	postRecvs(t, r.poolB, r.srqB, 64)
	recvs := 0
	r.eng.Spawn("receiver", func(pr *sim.Proc) {
		for {
			r.cqB.Wait(pr)
			for _, e := range r.cqB.Poll(0) {
				if e.Op == OpRecv {
					recvs++
				}
			}
		}
	})
	r.eng.Spawn("sender", func(pr *sim.Proc) {
		for i := 0; i < 32; i++ {
			src, err := r.poolA.Get("cli")
			if err != nil {
				t.Error(err)
				return
			}
			qa.PostSend(mempool.Descriptor{Tenant: tenantT, Buf: src, Len: 256})
			pr.Sleep(p.RetransmitTimeout) // straddle the timer window
		}
	})
	r.eng.RunUntil(time.Second)
	if recvs != 32 {
		t.Fatalf("recv completions = %d, want exactly 32 (no duplicates, no losses)", recvs)
	}
	if qa.Retransmits() != 0 {
		t.Fatalf("lossless run recorded %d retransmits", qa.Retransmits())
	}
}
