// Command perfbench is the repository's benchmark. It runs one workload on
// the deterministic simulator, checks that the run is correct, and prints
// every metric by name and unit; the last line of standard output is one
// JSON object with the fields correct, attempted, failed and metrics.
//
//	perfbench --workload geo-ycsb --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it sets up and measures several independently seeded
// clusters and reports the end-to-end metrics: the virtual-time outcomes of
// their measurement windows, the wall-clock cost of simulating them, and
// their set-up time. One cluster's figures move with its seed, so a run
// reports them over several clusters. With --trace 1 it measures one
// cluster twice, untraced under a CPU profile and then with the span tracer,
// checks that both give identical virtual-time metrics, and reports the
// per-layer metrics. The workload list and the metric definitions are
// recorded in BENCHMARK.json at the repository root.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"massbft"
)

// clustersPerRun is how many independently seeded clusters an untraced run
// sets up and measures.
const clustersPerRun = 3

// clusterSeed derives the seed of a run's i-th cluster; distinct run seeds
// never share a cluster seed.
func clusterSeed(seed int64, i int) int64 { return seed*clustersPerRun + int64(i) }

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name: geo-ycsb, globe-scale or gateway-faults")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "requested run length in wall seconds; sets the virtual window")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	window := w.window(*seconds)
	fmt.Printf("perfbench: workload=%s seed=%d warmup=%v window=%v trace=%d GOMAXPROCS=%d nproc=%d\n",
		w.name, *seed, w.warmup, window, *traced, runtime.GOMAXPROCS(0), runtime.NumCPU())

	var out *output
	var failures []string
	var err error
	if *traced == 1 {
		out, failures, err = tracedRun(w, *seed, window)
	} else {
		out, failures, err = endToEndRun(w, *seed, window)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, f := range failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	out.Correct = len(failures) == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func endToEndRun(w *workload, seed int64, window time.Duration) (*output, []string, error) {
	var passes []*pass
	var failures []string
	for i := 0; i < clustersPerRun; i++ {
		p, err := runPass(w, runOpts{seed: clusterSeed(seed, i), window: window, stepped: true, drain: true})
		if err != nil {
			return nil, nil, err
		}
		fmt.Printf(" cluster %d (seed %d): set-up %.3f s, window %.3f s wall\n", i, clusterSeed(seed, i), p.setup.Seconds(), p.window.Seconds())
		printPass(w, p)
		for _, f := range check(w, p, window) {
			failures = append(failures, fmt.Sprintf("cluster %d: %s", i, f))
		}
		passes = append(passes, p)
		runtime.GC()
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}
	// Virtual-time metrics are averaged over the clusters; the mean of a
	// few draws moves less than their median.
	mean := func(f func(p *pass) float64) float64 {
		var sum float64
		for _, p := range passes {
			sum += f(p)
		}
		return sum / float64(len(passes))
	}
	out := &output{Metrics: map[string]metricValue{}}
	var outage float64
	var setups []float64
	var wall time.Duration
	for _, p := range passes {
		outage = max(outage, p.virt.OutageMs)
		setups = append(setups, p.setup.Seconds())
		wall += p.window
		out.Attempted += p.virt.Committed + p.virt.Aborted + p.virt.ClientGaveUp
		out.Failed += p.virt.ClientGaveUp
	}
	vals := map[string]float64{
		"tput_tps":          mean(func(p *pass) float64 { return p.virt.TputTPS }),
		"lat_p50_ms":        mean(func(p *pass) float64 { return p.virt.LatP50Ms }),
		"lat_tail_ms":       mean(func(p *pass) float64 { return p.virt.LatTailMs }),
		"wan_kb_per_entry":  mean(func(p *pass) float64 { return p.virt.WANKBPerEntry }),
		"commit_share":      mean(func(p *pass) float64 { return p.virt.CommitShare }),
		"outage_ms":         outage,
		"sim_wall_s_per_vs": wall.Seconds() / (time.Duration(len(passes)) * window).Seconds(),
		"setup_s":           median(setups),
		"peak_rss_mb":       rss,
	}
	fmt.Printf(" across %d clusters: mean of the virtual-time metrics, longest outage, wall time over all windows, median set-up\n", len(passes))
	return finish(out, endToEnd, vals), failures, nil
}

func tracedRun(w *workload, seed int64, window time.Duration) (*output, []string, error) {
	var prof bytes.Buffer
	var before, after runtime.MemStats
	profErr := error(nil)
	plain, err := runPass(w, runOpts{seed: clusterSeed(seed, 0), window: window, stepped: true, drain: true,
		onWindow: func(start bool) {
			if start {
				runtime.ReadMemStats(&before)
				profErr = pprof.StartCPUProfile(&prof)
				return
			}
			pprof.StopCPUProfile()
			runtime.ReadMemStats(&after)
		}})
	if err != nil {
		return nil, nil, err
	}
	if profErr != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", profErr)
	}
	failures := check(w, plain, window)
	printPass(w, plain)

	dir, err := os.MkdirTemp(".", ".perfbench-trace-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	tr, err := runPass(w, runOpts{seed: clusterSeed(seed, 0), window: window, tracePath: dir + "/trace.json"})
	if err != nil {
		return nil, nil, err
	}
	if !reflect.DeepEqual(plain.virt, tr.virt) {
		failures = append(failures, fmt.Sprintf("traced run diverged from the untraced run:\n    untraced %+v\n    traced   %+v", plain.virt, tr.virt))
	}

	profile, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	shares, samples := profile.layerShares()
	cfg := w.config(clusterSeed(seed, 0))
	vals, err := layerMetrics(layerInputs{
		cfg: cfg, plain: plain, trace: tr, shares: shares, samples: samples,
		allocBytes: after.TotalAlloc - before.TotalAlloc, windowVS: window.Seconds(),
	})
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("  profile: %d samples over the untraced window; traced pass %.2fs set-up + %.2fs window vs untraced %.2fs + %.2fs\n",
		samples, tr.setup.Seconds(), tr.window.Seconds(), plain.setup.Seconds(), plain.window.Seconds())
	out := &output{
		Attempted: plain.virt.Committed + plain.virt.Aborted + plain.virt.ClientGaveUp,
		Failed:    plain.virt.ClientGaveUp,
		Metrics:   map[string]metricValue{},
	}
	return finish(out, perLayer, vals), failures, nil
}

// finish prints the metrics by name and unit into the result object.
func finish(out *output, defs []metricDef, vals map[string]float64) *output {
	for _, d := range defs {
		x := vals[d.name]
		fmt.Printf("  %-32s %14.6g %s\n", d.name, x, d.unit)
		out.Metrics[d.name] = metricValue{Value: x, Unit: d.unit}
	}
	return out
}

func printPass(w *workload, p *pass) {
	v := p.virt
	fmt.Printf("  observer N%d,%d: %d entries, %d committed, %d aborted txns in the window; tail percentile p%g over %d samples\n",
		p.observer.Group, p.observer.Index, v.Samples, v.Committed, v.Aborted, v.TailPct, v.Samples)
	if cfg := w.config(0); len(cfg.GroupRate) > 0 {
		var offered float64
		for _, r := range cfg.GroupRate {
			offered += r
		}
		fmt.Printf("  open loop: offered %.0f txn/s, delivered %.1f txn/s\n", offered, v.TputTPS)
	}
	if v.ClientCommitted+v.ClientGaveUp > 0 {
		fmt.Printf("  clients: %d certified, %d resubmitted, %d given up in the window\n",
			v.ClientCommitted, v.ClientResubmits, v.ClientGaveUp)
	}
	fmt.Printf("  longest commit gap %.0f ms ending at %v; last commit at %v\n", v.OutageMs, v.OutageEnd, v.LastCommit)
	fmt.Printf("  counters (window): %s\n", formatCounters(v.Counters))
	if p.verdict != "" {
		fmt.Printf("  agreement: %s\n", p.report)
	}
}

// check returns every failed correctness check of a measured pass.
func check(w *workload, p *pass, window time.Duration) []string {
	var fail []string
	v := p.virt
	if p.verdict != massbft.AgreementConverged {
		fail = append(fail, fmt.Sprintf("replicas did not converge: %s", p.report))
	}
	if v.Samples == 0 || v.Committed == 0 {
		fail = append(fail, "the observer executed no transaction in the window")
	}
	// The observer feeds every window metric; a fault on its group would
	// freeze them rather than measure the outage.
	for _, f := range w.nodeCrashes {
		if f.group == p.observer.Group {
			fail = append(fail, fmt.Sprintf("fault schedule crashes node %d,%d in the observer's group", f.group, f.index))
		}
	}
	for _, f := range w.groupCrashes {
		if f.group == p.observer.Group {
			fail = append(fail, fmt.Sprintf("fault schedule crashes the observer's group %d", f.group))
		}
	}
	c := v.Counters
	if !w.faulted() {
		if c["net-dropped"] != 0 || c["group-deaths"] != 0 {
			fail = append(fail, fmt.Sprintf("fault-free run dropped %d messages and certified %d group deaths", c["net-dropped"], c["group-deaths"]))
		}
		return fail
	}
	if c["net-dropped"] == 0 {
		fail = append(fail, "fault injection dropped no message")
	}
	if c["state-transfers"] < 1 {
		fail = append(fail, "the rejoining node made no state transfer")
	}
	if c["group-deaths"] < 1 {
		fail = append(fail, "no certified group death after the group crash")
	}
	if end := w.warmup + window; v.OutageEnd >= end || v.LastCommit <= w.lastFault() {
		fail = append(fail, fmt.Sprintf("the observer made no commit after the outage (outage ends %v, last commit %v, last fault %v)",
			v.OutageEnd, v.LastCommit, w.lastFault()))
	}
	return fail
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func formatCounters(c map[string]int64) string {
	var parts []string
	for _, name := range counterNames {
		if c[name] != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, c[name]))
		}
	}
	if len(parts) == 0 {
		return "all zero"
	}
	return strings.Join(parts, " ")
}
