package core

import (
	"testing"
	"time"

	"nadino/internal/ingress"
	"nadino/internal/sim"
)

// multiTenantConfig deploys two chains owned by two tenants: tenant A's
// chain stays inside tenant A, tenant B's chain calls across the tenant
// boundary into a shared backend owned by tenant A.
func multiTenantConfig(sys System) Config {
	return Config{
		System:  sys,
		Tenant:  "tenant_a",
		Tenants: []TenantSpec{{Name: "tenant_a", Weight: 3}, {Name: "tenant_b", Weight: 1}},
		Nodes:   []string{"node1", "node2"},
		Functions: []FunctionSpec{
			{Name: "a-front", Tenant: "tenant_a", Node: "node1", Service: 10 * time.Microsecond},
			{Name: "a-back", Tenant: "tenant_a", Node: "node2", Service: 10 * time.Microsecond},
			{Name: "b-front", Tenant: "tenant_b", Node: "node1", Service: 10 * time.Microsecond},
			{Name: "b-back", Tenant: "tenant_b", Node: "node2", Service: 10 * time.Microsecond},
		},
		Chains: []ChainSpec{
			{
				Name: "a-chain", Tenant: "tenant_a", Entry: "a-front",
				ReqBytes: 512, RespBytes: 512,
				Calls: []Call{{Callee: "a-back", ReqBytes: 1024, RespBytes: 1024}},
			},
			{
				Name: "b-chain", Tenant: "tenant_b", Entry: "b-front",
				ReqBytes: 512, RespBytes: 512,
				Calls: []Call{
					{Callee: "b-back", ReqBytes: 1024, RespBytes: 1024},
					// Cross-tenant call: b-front invokes tenant A's backend.
					{Callee: "a-back", ReqBytes: 1024, RespBytes: 1024},
				},
			},
		},
		Seed: 1,
	}
}

func driveChains(t *testing.T, c *Cluster, loads map[string]int, dur time.Duration) {
	t.Helper()
	for chain, n := range loads {
		for i := 0; i < n; i++ {
			chain, id := chain, i
			c.Eng.Spawn("client", func(pr *sim.Proc) {
				c.WaitReady(pr)
				respQ := sim.NewQueue[ingress.Response](c.Eng, 0)
				for {
					c.SubmitChain(chain, id, func(r ingress.Response) { respQ.TryPut(r) })
					respQ.Get(pr)
				}
			})
		}
	}
	c.Eng.RunUntil(dur)
}

func TestMultiTenantClusterServesBothTenants(t *testing.T) {
	for _, sys := range []System{NadinoDNE, NadinoCNE} {
		sys := sys
		t.Run(sys.String(), func(t *testing.T) {
			c := NewCluster(multiTenantConfig(sys))
			defer c.Eng.Stop()
			driveChains(t, c, map[string]int{"a-chain": 4, "b-chain": 4}, 200*time.Millisecond)
			for _, chain := range []string{"a-chain", "b-chain"} {
				if c.ChainLatency[chain].Count() < 50 {
					t.Errorf("chain %s completed only %d", chain, c.ChainLatency[chain].Count())
				}
			}
		})
	}
}

func TestCrossTenantCallsPayCopies(t *testing.T) {
	c := NewCluster(multiTenantConfig(NadinoDNE))
	defer c.Eng.Stop()
	driveChains(t, c, map[string]int{"b-chain": 2}, 100*time.Millisecond)
	done := c.ChainLatency["b-chain"].Count()
	if done == 0 {
		t.Fatal("cross-tenant chain never completed")
	}
	// Each b-chain request crosses the boundary twice (request into
	// a-back, response out of it).
	copies := c.CrossTenantCopies()
	if copies < 2*done*9/10 {
		t.Fatalf("cross-tenant copies = %d for %d requests, want ~2 per request", copies, done)
	}
	// Same-tenant traffic must not pay copies: run the pure-A chain alone.
	c2 := NewCluster(multiTenantConfig(NadinoDNE))
	defer c2.Eng.Stop()
	driveChains(t, c2, map[string]int{"a-chain": 2}, 100*time.Millisecond)
	if c2.CrossTenantCopies() != 0 {
		t.Fatalf("same-tenant chain paid %d cross-tenant copies", c2.CrossTenantCopies())
	}
}

func TestCrossTenantLatencyPenalty(t *testing.T) {
	// The cross-tenant chain pays sidecar copies on each boundary
	// crossing; compare against a structurally identical same-tenant
	// chain, each measured in isolation so only the copies differ.
	mkCfg := func() Config {
		cfg := multiTenantConfig(NadinoDNE)
		// Make a-chain structurally identical to b-chain: both call their
		// own-node2 backend, then a-back.
		cfg.Chains[0].Calls = []Call{
			{Callee: "a-back", ReqBytes: 1024, RespBytes: 1024},
			{Callee: "a-back", ReqBytes: 1024, RespBytes: 1024},
		}
		cfg.Chains[1].Calls = []Call{
			{Callee: "a-back", ReqBytes: 1024, RespBytes: 1024}, // cross-tenant
			{Callee: "a-back", ReqBytes: 1024, RespBytes: 1024}, // cross-tenant
		}
		return cfg
	}
	measure := func(chain string) time.Duration {
		c := NewCluster(mkCfg())
		defer c.Eng.Stop()
		driveChains(t, c, map[string]int{chain: 1}, 150*time.Millisecond)
		if c.ChainLatency[chain].Count() == 0 {
			t.Fatalf("chain %s did not complete", chain)
		}
		return c.ChainLatency[chain].Mean()
	}
	same := measure("a-chain")
	cross := measure("b-chain")
	if cross <= same {
		t.Fatalf("cross-tenant chain (%v) not slower than same-tenant twin (%v)", cross, same)
	}
	// The penalty is the copies, not a different transport: small.
	if cross > same*2 {
		t.Fatalf("cross-tenant penalty implausibly large: %v vs %v", cross, same)
	}
}

func TestTenantPoolsAreIsolated(t *testing.T) {
	c := NewCluster(multiTenantConfig(NadinoDNE))
	defer c.Eng.Stop()
	n := c.nodes["node1"]
	if c.Pool("node1", "tenant_a") == c.Pool("node1", "tenant_b") {
		t.Fatal("tenants share a pool")
	}
	// The registry rejects cross-tenant attachment.
	if _, err := n.reg.Attach("tenant_a", "tenant_b"); err == nil {
		t.Fatal("registry allowed cross-tenant attach")
	}
	if n.reg.TotalHugepages() == 0 {
		t.Fatal("no hugepages accounted")
	}
}
