package dne

import (
	"testing"

	"nadino/internal/mempool"
)

func TestPrioritySchedulerStrictOrdering(t *testing.T) {
	s := NewPriority()
	s.SetWeight(mempool.Intern("gold"), 10)
	s.SetWeight(mempool.Intern("bronze"), 1)
	s.SetWeight(mempool.Intern("silver"), 5)
	for i := 0; i < 3; i++ {
		s.Enqueue(mempool.Descriptor{Tenant: mempool.Intern("bronze"), Seq: uint64(i)})
		s.Enqueue(mempool.Descriptor{Tenant: mempool.Intern("gold"), Seq: uint64(i)})
		s.Enqueue(mempool.Descriptor{Tenant: mempool.Intern("silver"), Seq: uint64(i)})
	}
	var got []string
	for {
		d, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, d.Tenant.String())
	}
	want := []string{"gold", "gold", "gold", "silver", "silver", "silver", "bronze", "bronze", "bronze"}
	if len(got) != len(want) {
		t.Fatalf("drained %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

func TestPriorityUnknownTenantStillServed(t *testing.T) {
	s := NewPriority()
	s.Enqueue(mempool.Descriptor{Tenant: mempool.Intern("walkin")})
	if d, ok := s.Next(); !ok || d.Tenant.String() != "walkin" {
		t.Fatal("unregistered tenant lost its message")
	}
}
