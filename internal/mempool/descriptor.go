package mempool

import "nadino/internal/trace"

// Descriptor is the buffer descriptor exchanged over NADINO's data plane
// (§3.5.4): intra-node via SK_MSG, host<->DPU via Comch, and embedded in
// RDMA work requests for inter-node hops. Ownership of the descriptor is
// ownership of the buffer it points to.
//
// It carries what the data plane routes on — the interned tenant, source
// and destination names, the buffer handle, the payload length and the
// flow sequence number, the paper's 16 bytes widened to simulator types —
// plus two per-copy hop counters and one pointer to the message's
// immutable side record (Req). It is 48 bytes with a single pointer word,
// so the by-value copies through every ring, queue and CQE stay small.
type Descriptor struct {
	Tenant Name // owning tenant / pool prefix
	Src    Name // producing function ID
	Dst    Name // destination function ID
	// Retries counts data-plane retransmissions of this descriptor after
	// transport errors (engine-level at-least-once recovery).
	Retries uint8
	// Hops counts inter-gateway relays (TTL): bumped per transit forward,
	// fencing transient routing loops during failover.
	Hops uint8
	Buf  Buffer // pooled buffer handle
	Len  int    // payload length in bytes
	Seq  uint64 // per-flow sequence number
	// Req is the message's side record (nil for bare descriptors: receive
	// buffers, untraced rigs). It is simulation bookkeeping, not part of
	// the modeled 16 bytes.
	Req *Req
}

// Req is a message's side record: the per-request state that travels with
// a descriptor without being part of what the data plane routes on. The
// sender sets it once and no carrier mutates it, so every copy of the
// descriptor — queued, retried, landed by an RDMA receive, relayed by a
// gateway — shares it by pointer. The garbage collector owns its lifetime:
// no layer has to free it where a descriptor dies.
type Req struct {
	// Ctx is the opaque request context carried end to end.
	Ctx any
	// Trace is the request trace this message belongs to; nil (the common
	// case) disables all span recording along its path.
	Trace *trace.Req
	// Spec is the speculation cancellation probe, non-nil only on the
	// request legs of cloned/hedged requests (and on their responses, which
	// a loser's TX gate still kills). Carriers consult it through
	// Descriptor.SpecKilled at their drop-decision points.
	Spec func() bool
}

// TraceReq returns a side record carrying only tr, or nil when tr is nil,
// so callers that need no context allocate nothing for untraced requests.
func TraceReq(tr *trace.Req) *Req {
	if tr == nil {
		return nil
	}
	return &Req{Trace: tr}
}

// The accessors below take d by value: a pointer receiver would take the
// address of every descriptor they are called on and move the ones that
// closures capture to the heap.

// Trace returns d's request trace (nil when untraced).
func (d Descriptor) Trace() *trace.Req {
	if d.Req == nil {
		return nil
	}
	return d.Req.Trace
}

// Ctx returns d's request context (nil when none).
func (d Descriptor) Ctx() any {
	if d.Req == nil {
		return nil
	}
	return d.Req.Ctx
}

// SpecKilled runs d's speculation probe, if it has one, at a carrier's
// drop-decision point (scheduler dequeue, TX issue, function dequeue). True
// means the request's group already completed elsewhere: the carrier must
// kill this clone, recycling the buffer and returning whatever credits or
// WR state it holds at that stage. The probe itself performs the group-side
// bookkeeping for the kill, so a carrier asks at most once per descriptor
// death.
func (d Descriptor) SpecKilled() bool {
	return d.Req != nil && d.Req.Spec != nil && d.Req.Spec()
}

// DropNotifier is implemented by request contexts (Req.Ctx) that must
// learn when the data plane gives their descriptor up for good, so whoever
// waits on it can fail instead of blocking forever.
type DropNotifier interface {
	Dropped()
}

// NotifyDropped tells d's context, if it asks to be told, that no layer
// will deliver d. Carriers call it once, where they finally drop d.
func (d Descriptor) NotifyDropped() {
	if n, ok := d.Ctx().(DropNotifier); ok {
		n.Dropped()
	}
}
