package mempool

import (
	"sync"
	"sync/atomic"
)

// Name is an interned identifier — a tenant (pool prefix) or a function
// ID — as a descriptor carries it. Interning is process-wide, so a name
// has the same value in every engine, gateway and rig of the process and
// the data plane resolves it by slice indexing (NameTable), never by
// hashing a string. The zero Name is "".
//
// The numeric value is an artifact of interning order, which differs from
// run to run (experiments build clusters in parallel). It must never reach
// output or decide an ordering: print String, and iterate in registration
// order.
type Name int32

// names is the process-wide interner. tab is append-only and indexed by
// Name; Intern publishes each grown slice header atomically, so String
// reads it without the lock (entries below a published length never
// change).
var names struct {
	mu  sync.Mutex
	ids map[string]Name
	tab atomic.Pointer[[]string]
}

func init() {
	tab := []string{""}
	names.ids = map[string]Name{"": 0}
	names.tab.Store(&tab)
}

// Intern returns s's Name, assigning the next value on first use. It takes
// a lock: call it where names are registered or a rig is built, never per
// message — keep the Name and copy it instead.
func Intern(s string) Name {
	names.mu.Lock()
	defer names.mu.Unlock()
	if n, ok := names.ids[s]; ok {
		return n
	}
	tab := append(*names.tab.Load(), s)
	n := Name(len(tab) - 1)
	names.ids[s] = n
	names.tab.Store(&tab)
	return n
}

// String returns the interned string.
func (n Name) String() string { return (*names.tab.Load())[n] }

// NameTable maps Names to values by direct indexing: a slice grown when a
// name is registered, so a lookup on the data path is a bounds check and a
// load. It stays small because only tenant and function names are interned.
// The zero value is an empty table.
type NameTable[T any] struct {
	vals []T
}

// Get returns n's value, or the zero value when n was never set.
func (t *NameTable[T]) Get(n Name) T {
	if uint(n) < uint(len(t.vals)) {
		return t.vals[n]
	}
	var zero T
	return zero
}

// Set stores v under n, growing the table as needed.
func (t *NameTable[T]) Set(n Name, v T) {
	if int(n) >= len(t.vals) {
		t.vals = append(t.vals, make([]T, int(n)+1-len(t.vals))...)
	}
	t.vals[n] = v
}
