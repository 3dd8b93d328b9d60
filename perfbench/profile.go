package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// layers are the host.pct.* groups, in output order: one per internal
// package the request path runs through, the Go runtime split four ways,
// the benchmark's own code, and everything else.
var layers = []string{
	"sim", "runtime_sched", "runtime_gc", "runtime_malloc", "runtime_copy",
	"core", "ingress", "dne", "rdma", "mempool", "ring", "dpu", "ipc",
	"gateway", "fabric", "speculate", "trace", "flightrec", "metrics",
	"bench", "other",
}

// profile is a CPU profile of one stretch of the measured window.
type profile struct {
	path string
	f    *os.File
}

// startProfile starts a CPU profile into a file under dir named after the
// part it starts at.
func startProfile(dir string, part int) (*profile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("perfbench-%d-part%b.pprof", os.Getpid(), part))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return &profile{path: path, f: f}, nil
}

func (p *profile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// shares groups the profile's flat (self) time by layer, in percent of all
// samples, reading `go tool pprof -top` from the installed toolchain. The
// profile file is removed afterwards.
func (p *profile) shares() (map[string]float64, error) {
	defer os.Remove(p.path)
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ns", p.path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTop(out)
}

// parseTop reads `pprof -top -unit=ns` rows ("flat flat% sum% cum cum%
// name") and sums flat time per layer.
func parseTop(out []byte) (map[string]float64, error) {
	flat := make(map[string]float64)
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		flat[layerOf(strings.Join(fields[5:], " "))] += v
		total += v
	}
	if !header {
		return nil, fmt.Errorf("no pprof -top table in output:\n%s", out)
	}
	pct := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			pct[l] = 100 * flat[l] / total
		}
	}
	return pct, nil
}

// layerOf names the layer a profiled function belongs to.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/"):
		return runtimeLayer(strings.TrimPrefix(fn, "runtime."))
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "nadino/internal/"):
		pkg := packageOf(fn)
		for _, l := range layers {
			if pkg == "nadino/internal/"+l {
				return l
			}
		}
	}
	return "other"
}

// packageOf returns the import path of a pprof function name such as
// "nadino/internal/sim.(*Queue[go.shape.struct {}]).Get".
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(head[slash+1:], "."); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}

// runtimeLayer splits Go runtime self time: descriptor and value copies,
// the garbage collector, allocation, and the rest, which in this program is
// almost all goroutine park/unpark for the sim.Proc channel handoff.
func runtimeLayer(fn string) string {
	switch {
	case fn == "memmove" || fn == "duffcopy":
		return "runtime_copy"
	case hasAny(fn, "gcBgMarkWorker", "gcDrain", "gcMark", "gcWork", "gcAssist", "gcFlush", "scanobject",
		"scanblock", "scanstack", "scanframe", "greyobject", "findObject", "markBits", "markroot",
		"wbBuf", "bulkBarrier", "sweep", "typePointers", "spanOf", "(*gcBits)", "gcStart", "gcMarkDone"):
		return "runtime_gc"
	case hasAny(fn, "mallocgc", "nextFreeFast", "(*mcache)", "(*mcentral)", "(*mheap)", "newobject",
		"newarray", "makeslice", "growslice", "memclrNoHeapPointers", "nextFreeIndex", "heapSetType",
		"heapBitsSetType", "(*mspan).init", "refill", "allocSpan"):
		return "runtime_malloc"
	}
	return "runtime_sched"
}

func hasAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}
