package mempool

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// pointerFields counts the fields of t, recursing into nested structs and
// arrays, whose values hold a pointer the garbage collector must trace
// (pointers, strings, interfaces, funcs, maps, slices, channels).
func pointerFields(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += pointerFields(t.Field(i).Type)
		}
		return n
	case reflect.Array:
		return t.Len() * pointerFields(t.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Interface,
		reflect.Func, reflect.Map, reflect.Slice, reflect.Chan:
		return 1
	}
	return 0
}

// TestDescriptorLayout pins the descriptor's size: it is copied by value
// through every ring, queue and CQE, so it must stay within a short inline
// move (no runtime.duffcopy) and carry one pointer word — the side record.
func TestDescriptorLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Descriptor{}); sz > 56 {
		t.Errorf("Descriptor is %d bytes, want <= 56", sz)
	}
	if n := pointerFields(reflect.TypeOf(Descriptor{})); n != 1 {
		t.Errorf("Descriptor has %d pointer-bearing fields, want exactly 1 (Req)", n)
	}
}

func TestInternEmptyIsZero(t *testing.T) {
	if n := Intern(""); n != 0 {
		t.Fatalf(`Intern("") = %d, want 0`, n)
	}
	if s := Name(0).String(); s != "" {
		t.Fatalf("Name(0).String() = %q, want empty", s)
	}
}

func TestInternRoundTrip(t *testing.T) {
	for _, s := range []string{"tenant_1", "cli-t", "srv-t", "ingress", "fn@2"} {
		n := Intern(s)
		if got := n.String(); got != s {
			t.Errorf("Intern(%q).String() = %q", s, got)
		}
		if again := Intern(s); again != n {
			t.Errorf("Intern(%q) not stable: %d then %d", s, n, again)
		}
	}
	if Intern("intern-a") == Intern("intern-b") {
		t.Error("distinct strings interned to one Name")
	}
}

// TestInternConcurrent interns overlapping name sets from many goroutines,
// as parallel experiment runs do while building their clusters, and checks
// each string got exactly one Name. Meaningful under -race.
func TestInternConcurrent(t *testing.T) {
	const workers, perWorker = 8, 200
	got := make([][]Name, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]Name, perWorker)
			for i := range out {
				// Workers walk the same strings in different orders.
				j := (i + w*37) % perWorker
				out[j] = Intern(fmt.Sprintf("concurrent-%d", j))
				if s := out[j].String(); s != fmt.Sprintf("concurrent-%d", j) {
					t.Errorf("String() = %q mid-intern", s)
				}
			}
			got[w] = out
		}()
	}
	wg.Wait()
	seen := make(map[Name]int)
	for i := 0; i < perWorker; i++ {
		n := got[0][i]
		for w := 1; w < workers; w++ {
			if got[w][i] != n {
				t.Fatalf("concurrent-%d interned to %d and %d", i, n, got[w][i])
			}
		}
		if prev, dup := seen[n]; dup {
			t.Fatalf("concurrent-%d and concurrent-%d share Name %d", prev, i, n)
		}
		seen[n] = i
	}
}

func TestNameTable(t *testing.T) {
	var tab NameTable[int]
	a, b := Intern("table-a"), Intern("table-b")
	if v := tab.Get(a); v != 0 {
		t.Fatalf("empty table Get = %d", v)
	}
	tab.Set(b, 7)
	tab.Set(a, 3)
	if tab.Get(a) != 3 || tab.Get(b) != 7 {
		t.Fatalf("Get after Set = %d, %d", tab.Get(a), tab.Get(b))
	}
	if v := tab.Get(Intern("table-unset")); v != 0 {
		t.Fatalf("unset name Get = %d", v)
	}
}
