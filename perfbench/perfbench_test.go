package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"massbft"
	"massbft/internal/keys"
)

// short returns a copy of a workload with a shortened warm-up, so the
// determinism tests stay in the tens of seconds.
func short(t *testing.T, name string) *workload {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.warmup = 500 * time.Millisecond
	return &c
}

// shortWindow covers the node crash and rejoin of gateway-faults and half a
// virtual second of the fault-free workloads.
func shortWindow(w *workload) time.Duration {
	if w.faulted() {
		return 2 * time.Second
	}
	return 500 * time.Millisecond
}

func mustPass(t *testing.T, w *workload, o runOpts) *pass {
	t.Helper()
	p, err := runPass(w, o)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if p.virt.Samples == 0 {
		t.Fatalf("%s: the observer executed nothing in the window", w.name)
	}
	return p
}

func withoutOutage(v virtualMetrics) virtualMetrics {
	v.OutageMs, v.OutageEnd, v.LastCommit, v.Sampled = 0, 0, 0, false
	return v
}

// TestVirtualMetricsDeterministic checks, on shortened runs of every
// workload, that the virtual-time metrics depend on the seed alone: the same
// seed repeats them exactly, another seed changes them, the tracer is
// passive, and stepping the window in sampleStep Run calls equals one Run.
func TestVirtualMetricsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			w := short(t, wl.name)
			win := shortWindow(w)
			a := mustPass(t, w, runOpts{seed: 11, window: win, stepped: true})
			b := mustPass(t, w, runOpts{seed: 11, window: win, stepped: true})
			if !reflect.DeepEqual(a.virt, b.virt) {
				t.Errorf("same seed, different metrics:\n%+v\n%+v", a.virt, b.virt)
			}
			other := mustPass(t, w, runOpts{seed: 12, window: win, stepped: true})
			if other.virt.TputTPS == a.virt.TputTPS && other.virt.LatP50Ms == a.virt.LatP50Ms &&
				other.virt.LedgerHead == a.virt.LedgerHead {
				t.Errorf("seeds 11 and 12 gave identical runs: %+v", a.virt)
			}
			traced := mustPass(t, w, runOpts{seed: 11, window: win, tracePath: t.TempDir() + "/trace.json"})
			if !reflect.DeepEqual(a.virt, traced.virt) {
				t.Errorf("traced run differs from the untraced one:\n%+v\n%+v", a.virt, traced.virt)
			}
			if traced.trace == nil || traced.trace.Spans == 0 {
				t.Errorf("traced run recorded no spans")
			}
			single := mustPass(t, w, runOpts{seed: 11, window: win})
			if !reflect.DeepEqual(withoutOutage(a.virt), withoutOutage(single.virt)) {
				t.Errorf("stepping differs from one Run:\n%+v\n%+v", a.virt, single.virt)
			}
		})
	}
}

// TestWANPerEntryIndependentOfWindow checks that wan_kb_per_entry counts
// only the window's WAN bytes: a window three times longer on the same run
// configuration gives the same figure. Dividing whole-run bytes by window
// entries instead makes the shorter window read much higher.
func TestWANPerEntryIndependentOfWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	w := workloadByName("geo-ycsb")
	a := mustPass(t, w, runOpts{seed: 5, window: 500 * time.Millisecond})
	b := mustPass(t, w, runOpts{seed: 5, window: 1500 * time.Millisecond})
	if d := math.Abs(a.virt.WANKBPerEntry/b.virt.WANKBPerEntry - 1); d > 0.05 {
		t.Errorf("wan_kb_per_entry %.1f over 0.5 vs and %.1f over 1.5 vs differ by %.1f%%",
			a.virt.WANKBPerEntry, b.virt.WANKBPerEntry, 100*d)
	}
}

// TestCheckFailsBrokenRuns feeds check() passes that each break one
// correctness condition of the faulted workload.
func TestCheckFailsBrokenRuns(t *testing.T) {
	w := workloadByName("gateway-faults")
	window := w.window(10)
	good := func() *pass {
		return &pass{
			verdict:  massbft.AgreementConverged,
			observer: keys.NodeID{Group: 3},
			virt: virtualMetrics{
				Samples: 300, Committed: 8000,
				OutageEnd: 6200 * time.Millisecond, LastCommit: 7900 * time.Millisecond,
				Counters: map[string]int64{"net-dropped": 400, "state-transfers": 1, "group-deaths": 12},
			},
		}
	}
	if f := check(w, good(), window); len(f) != 0 {
		t.Fatalf("healthy run failed its checks: %v", f)
	}
	for name, breakIt := range map[string]func(p *pass){
		"wedged":              func(p *pass) { p.verdict = massbft.AgreementWedged },
		"forked":              func(p *pass) { p.verdict = massbft.AgreementForked },
		"no commits":          func(p *pass) { p.virt.Samples, p.virt.Committed = 0, 0 },
		"no drops":            func(p *pass) { p.virt.Counters["net-dropped"] = 0 },
		"no state transfer":   func(p *pass) { p.virt.Counters["state-transfers"] = 0 },
		"no group death":      func(p *pass) { p.virt.Counters["group-deaths"] = 0 },
		"outage never ends":   func(p *pass) { p.virt.OutageEnd = w.warmup + window },
		"no commit after":     func(p *pass) { p.virt.LastCommit = 3 * time.Second },
		"observer in crashed": func(p *pass) { p.observer = keys.NodeID{Group: 2} },
	} {
		p := good()
		breakIt(p)
		if len(check(w, p, window)) == 0 {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
	}{{20000, 99.9}, {1000, 99}, {445, 97.5}, {288, 95}, {100, 90}, {5, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestLongestGap(t *testing.T) {
	ms := time.Millisecond
	gap, end := longestGap([]time.Duration{1010 * ms, 1020 * ms, 1500 * ms, 1510 * ms}, 1000*ms, 2000*ms)
	if gap != 490 || end != 2000*ms {
		t.Errorf("trailing gap: got %v ending %v, want 490 ending 2s", gap, end)
	}
	gap, end = longestGap([]time.Duration{1400 * ms, 1410 * ms}, 1000*ms, 1500*ms)
	if gap != 400 || end != 1400*ms {
		t.Errorf("leading gap: got %v ending %v, want 400 ending 1.4s", gap, end)
	}
}

// protoBuf is a minimal protobuf writer for synthetic profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(field int, v uint64) *protoBuf {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *protoBuf) bytes(field int, b []byte) *protoBuf {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// syntheticProfile encodes a gzipped pprof profile. Each location holds
// the listed functions, innermost first (more than one means inlining).
func syntheticProfile(funcs []string, locs [][]uint64, samples []struct {
	locs  []uint64
	count uint64
}) []byte {
	var p protoBuf
	strs := append([]string{""}, funcs...)
	for _, s := range samples {
		var sm protoBuf
		sm.bytes(1, packed(s.locs...)).bytes(2, packed(s.count, s.count*10_000_000))
		p.bytes(2, sm.b)
	}
	for i, fns := range locs {
		var loc protoBuf
		loc.varint(1, uint64(i+1))
		for _, fn := range fns {
			var line protoBuf
			line.varint(1, fn).varint(2, 7)
			loc.bytes(4, line.b)
		}
		p.bytes(4, loc.b)
	}
	for i := range funcs {
		var fn protoBuf
		fn.varint(1, uint64(i+1)).varint(2, uint64(i+1))
		p.bytes(5, fn.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()
	return gz.Bytes()
}

func TestLayerSharesLeafMostInternalFrame(t *testing.T) {
	funcs := []string{
		"crypto/ed25519.Verify",                    // 1
		"massbft/internal/keys.(*Registry).Verify", // 2
		"massbft/internal/gateway.(*Gateway).Submit",
		"massbft/internal/simnet.(*Network).Run",
		"runtime.mallocgc",
		"massbft/internal/statedb.(*Store).Get",
		"massbft/internal/aria.(*Engine).ExecuteBatch",
		"runtime.gcDrain",
		"runtime.gcBgMarkWorker",
		"main.main",
		"massbft/internal/transport/tcp.(*Conn).Send",
	}
	locs := [][]uint64{
		{1},    // 1: ed25519 leaf
		{2, 3}, // 2: keys inlined into gateway: keys is the leaf-most
		{4},    // 3: simnet
		{5},    // 4: malloc
		{6, 7}, // 5: statedb inlined into aria
		{8},    // 6: gcDrain
		{9},    // 7: background worker
		{10},   // 8: main
		{11},   // 9: transport/tcp
	}
	samples := []struct {
		locs  []uint64
		count uint64
	}{
		{[]uint64{1, 2, 3}, 5}, // ed25519 under keys under gateway -> keys
		{[]uint64{4, 5, 3}, 3}, // malloc under statedb under aria -> statedb
		{[]uint64{6, 7}, 2},    // GC worker -> runtime.gc
		{[]uint64{4, 8}, 4},    // malloc from main -> other
		{[]uint64{3}, 1},       // simnet itself
		{[]uint64{9, 8}, 5},    // nested internal package -> transport
	}
	prof, err := parseProfile(syntheticProfile(funcs, locs, samples))
	if err != nil {
		t.Fatal(err)
	}
	shares, total := prof.layerShares()
	if total != 20 {
		t.Fatalf("total samples %d, want 20", total)
	}
	want := map[string]float64{"keys": 0.25, "statedb": 0.15, gcBucket: 0.1, otherBucket: 0.2, "simnet": 0.05, "transport": 0.25}
	if !reflect.DeepEqual(shares, want) {
		t.Errorf("shares %v, want %v", shares, want)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("plain bytes parsed as a profile")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x50, 0x01}) // sample field claiming 80 bytes
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("truncated message parsed")
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workload and metric
// lists in step with what the program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, program prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: json %s %s, program %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, program prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: json %s %s, program %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
