package mempool

import (
	"time"

	"nadino/internal/trace"
)

// Descriptor is the 16-byte buffer descriptor exchanged over NADINO's data
// plane (§3.5.4): intra-node via SK_MSG, host<->DPU via Comch, and embedded
// in RDMA work requests for inter-node hops. Ownership of the descriptor is
// ownership of the buffer it points to.
//
// The trailing fields (Stamp, Ctx) are simulation bookkeeping and do not
// count toward the modeled 16 bytes.
type Descriptor struct {
	Tenant string // owning tenant / pool prefix
	Buf    Buffer // pooled buffer handle
	Len    int    // payload length in bytes
	Src    string // producing function ID
	Dst    string // destination function ID
	Seq    uint64 // per-flow sequence number

	// TenantID and DstID are interned routing hints: the stamping engine's
	// dense tenant/function IDs plus one, with zero meaning "unresolved —
	// fall back to the string fields". They are engine-local (assigned at
	// registration time, never carried across the wire: the receiver
	// re-stamps TenantID when it posts the landing buffer), and exist so
	// the per-request data path does slice indexing instead of string-map
	// lookups. Simulation bookkeeping, not part of the modeled 16 bytes.
	TenantID int32
	DstID    int32

	Stamp time.Duration // creation time (latency accounting)
	Ctx   any           // opaque request context carried end to end
	// Trace is the request trace this descriptor belongs to; nil (the
	// common case) disables all span recording along its path.
	Trace *trace.Req
	// Retries counts data-plane retransmissions of this descriptor after
	// transport errors (engine-level at-least-once recovery).
	Retries uint8
	// Hops counts inter-gateway relays (TTL): bumped per transit forward,
	// fencing transient routing loops during failover.
	Hops uint8
	// Spec is the speculation cancellation probe, non-nil only on the
	// request legs of cloned/hedged requests. Carriers call it at their
	// drop-decision points (scheduler dequeue, TX issue, function dequeue);
	// a true return means the request's group already completed elsewhere —
	// the carrier must kill this clone, recycling the buffer and returning
	// whatever credits or WR state it holds at that stage. The probe itself
	// performs the group-side bookkeeping for the kill, so carriers must
	// call it at most once per descriptor death. Simulation bookkeeping,
	// not part of the modeled 16 bytes.
	Spec func() bool
}

// DropNotifier is implemented by request contexts (Descriptor.Ctx) that
// must learn when the data plane gives their descriptor up for good, so
// whoever waits on it can fail instead of blocking forever.
type DropNotifier interface {
	Dropped()
}

// NotifyDropped tells d's context, if it asks to be told, that no layer
// will deliver d. Carriers call it once, where they finally drop d.
func (d *Descriptor) NotifyDropped() {
	if n, ok := d.Ctx.(DropNotifier); ok {
		n.Dropped()
	}
}
