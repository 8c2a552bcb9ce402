package main

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"time"
	"unsafe"

	"massbft"
	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/trace"
)

// sampleStep is the virtual-time resolution of the commit sampling behind
// outage_ms. On the fault-free workloads the longest commit gap is 20-40 ms,
// so a coarser step would round it onto one of a few values and one step
// more or less would move the metric by a quarter.
const sampleStep = time.Millisecond

// tailLadder lists the tail percentiles lat_tail_ms may use, highest first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 97.5, 95, 90, 75, 50}

// counterNames are the run-wide cluster counters the benchmark reads; every
// one is reported as a window delta except gateway-queue-peak, a peak.
var counterNames = []string{
	"net-dropped", "state-transfers", "group-deaths", "record-retries",
	"repair-reqs", "fetch-retries", "slot-catchups",
	"gateway-verified", "gateway-verify-fail", "gateway-memo-hit",
	"gateway-rejected-overload", "gateway-queue-peak",
}

// virtualMetrics are the outcomes measured in virtual time. They depend only
// on the workload, the seed and the window, so two runs of one seed must
// produce identical values whatever the host does.
type virtualMetrics struct {
	TputTPS       float64
	LatP50Ms      float64
	LatTailMs     float64
	TailPct       float64
	Samples       int64 // latency samples = entries executed in the window
	WANKBPerEntry float64
	CommitShare   float64
	// OutageMs is the longest interval in the window without a new
	// execution at the observer, sampled every sampleStep. OutageEnd is the
	// end of that interval and LastCommit the last sampled execution, both
	// as virtual times since run start. Sampled is false for an untraced
	// single-Run pass, which cannot observe them.
	OutageMs              float64
	OutageEnd, LastCommit time.Duration
	Sampled               bool

	Committed, Aborted int64
	// Client-side window deltas of gateway runs.
	ClientCommitted, ClientResubmits, ClientGaveUp int64
	Counters                                       map[string]int64
	MsgsSent                                       int64
	LedgerHeight                                   uint64
	LedgerHead                                     [32]byte
}

// runOpts selects how one pass drives the cluster.
type runOpts struct {
	seed   int64
	window time.Duration
	// stepped advances the window in sampleStep calls to the public Run
	// (the untraced measurement). Otherwise the window is one Run call.
	stepped bool
	// tracePath enables the tracer. A traced pass is never stepped: Run
	// rewrites the whole Chrome trace file on every call.
	tracePath string
	// drain runs DrainToAgreement after the window.
	drain bool
	// onWindow, if set, brackets the window (used to profile it).
	onWindow func(start bool)
}

// pass is the outcome of one cluster run.
type pass struct {
	virt                 virtualMetrics
	setup                time.Duration // NewCluster call to end of warm-up
	window               time.Duration // wall time of the window
	verdict              massbft.AgreementVerdict
	report               string
	trace                *massbft.TraceReport
	observer             keys.NodeID
	certHits, certMisses uint64
}

// innerCluster reaches the simulator behind a massbft.Cluster. The public
// type exposes no accessor for the network's per-node message counts, the
// key registry's cache statistics, the metrics collector's percentiles or
// the span recorder, all of which the per-layer metrics need.
func innerCluster(c *massbft.Cluster) *cluster.Cluster {
	f := reflect.ValueOf(c).Elem().FieldByName("inner")
	if !f.IsValid() || f.Type() != reflect.TypeOf((*cluster.Cluster)(nil)) {
		panic("perfbench: massbft.Cluster no longer wraps a *cluster.Cluster in field inner")
	}
	return *(**cluster.Cluster)(unsafe.Pointer(f.UnsafeAddr()))
}

// setUp builds a cluster, arms its fault schedule and runs the warm-up. The
// returned duration is the benchmark's set-up time.
func setUp(w *workload, seed int64, tracePath string) (*massbft.Cluster, massbft.Result, time.Duration, error) {
	cfg := w.config(seed)
	cfg.Warmup = w.warmup
	cfg.TracePath = tracePath
	start := time.Now()
	c, err := massbft.NewCluster(cfg)
	if err != nil {
		return nil, massbft.Result{}, 0, fmt.Errorf("new cluster: %w", err)
	}
	w.prepare(c, cfg.Groups)
	res := c.Run(w.warmup)
	return c, res, time.Since(start), nil
}

type snapshot struct {
	wanBytes                   int64
	committed, resubmits, gave int64
	counters                   map[string]int64
	msgs                       int64
	certHits, certMisses       uint64
}

func takeSnapshot(c *massbft.Cluster, res massbft.Result) snapshot {
	in := innerCluster(c)
	s := snapshot{
		wanBytes:  res.WANBytesTotal,
		committed: res.ClientCommitted,
		resubmits: res.ClientResubmits,
		gave:      res.ClientGaveUp,
		counters:  make(map[string]int64, len(counterNames)),
	}
	for _, name := range counterNames {
		s.counters[name] = c.Counter(name)
	}
	for g, n := range in.Cfg.GroupSizes {
		for i := 0; i < n; i++ {
			s.msgs += in.Net.Node(keys.NodeID{Group: g, Index: i}).MsgsSent()
		}
	}
	s.certHits, s.certMisses = in.Reg.CertCacheStats()
	return s
}

// runPass sets up one cluster and measures one window on it.
func runPass(w *workload, o runOpts) (*pass, error) {
	if o.tracePath != "" && o.stepped {
		return nil, fmt.Errorf("a traced pass cannot be stepped")
	}
	c, warm, setup, err := setUp(w, o.seed, o.tracePath)
	if err != nil {
		return nil, err
	}
	in := innerCluster(c)
	p := &pass{setup: setup, observer: in.Cfg.Observer}
	before := takeSnapshot(c, warm)

	if o.onWindow != nil {
		o.onWindow(true)
	}
	var res massbft.Result
	var commitSamples []time.Duration // sample times at which executions rose
	start := time.Now()
	if o.stepped {
		steps := int(o.window / sampleStep)
		prev := warm.Entries
		for k := 1; k <= steps; k++ {
			res = c.Run(sampleStep)
			if res.Entries > prev {
				commitSamples = append(commitSamples, w.warmup+time.Duration(k)*sampleStep)
				prev = res.Entries
			}
		}
	} else {
		res = c.Run(o.window)
	}
	p.window = time.Since(start)
	if o.onWindow != nil {
		o.onWindow(false)
	}
	if !o.stepped && in.Trace != nil {
		commitSamples = executionSamples(in.Trace.Spans(), in.Cfg.Observer, w.warmup, o.window)
	}
	if err := c.TraceError(); err != nil {
		return nil, fmt.Errorf("trace export: %w", err)
	}
	after := takeSnapshot(c, res)
	p.virt = windowMetrics(in, res, before, after)
	if o.stepped || in.Trace != nil {
		p.virt.Sampled = true
		p.virt.OutageMs, p.virt.OutageEnd = longestGap(commitSamples, w.warmup, w.warmup+o.window)
		if len(commitSamples) > 0 {
			p.virt.LastCommit = commitSamples[len(commitSamples)-1]
		}
	}
	obs := c.Ledger(p.observer.Group, p.observer.Index)
	p.virt.LedgerHeight, p.virt.LedgerHead = obs.Height, obs.Head
	p.trace = res.Trace
	p.certHits, p.certMisses = after.certHits-before.certHits, after.certMisses-before.certMisses

	if o.drain {
		rep := c.DrainToAgreement(500*time.Millisecond, w.drainBudget)
		p.verdict, p.report = rep.Verdict, rep.String()
	}
	return p, nil
}

// windowMetrics derives the virtual-time metrics of the window from the
// cumulative result and the counter snapshots taken around the window.
func windowMetrics(in *cluster.Cluster, res massbft.Result, before, after snapshot) virtualMetrics {
	v := virtualMetrics{
		TputTPS:         res.Throughput,
		LatP50Ms:        ms(res.P50Latency),
		Samples:         res.Entries,
		Committed:       res.Committed,
		Aborted:         res.Aborted,
		ClientCommitted: after.committed - before.committed,
		ClientResubmits: after.resubmits - before.resubmits,
		ClientGaveUp:    after.gave - before.gave,
		MsgsSent:        after.msgs - before.msgs,
		Counters:        make(map[string]int64, len(counterNames)),
	}
	v.TailPct = tailPercentile(res.Entries)
	v.LatTailMs = ms(in.Metrics.PercentileLatency(v.TailPct))
	if res.Entries > 0 {
		v.WANKBPerEntry = float64(after.wanBytes-before.wanBytes) / float64(res.Entries) / 1024
	}
	if fin := res.Committed + res.Aborted + v.ClientGaveUp; fin > 0 {
		v.CommitShare = float64(res.Committed) / float64(fin)
	}
	for _, name := range counterNames {
		v.Counters[name] = after.counters[name] - before.counters[name]
	}
	v.Counters["gateway-queue-peak"] = after.counters["gateway-queue-peak"]
	return v
}

// tailPercentile is the highest ladder percentile with at least ten of n
// samples beyond it.
func tailPercentile(n int64) float64 {
	for _, p := range tailLadder {
		if n-int64(math.Ceil(p/100*float64(n))) >= 10 {
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}

// executionSamples maps the observer's execute spans in (from, from+window]
// onto the sample times at which stepping by sampleStep would have seen the
// execution count rise, so a traced single-Run pass yields the same outage
// as a stepped one.
func executionSamples(spans []trace.Span, observer keys.NodeID, from, window time.Duration) []time.Duration {
	seen := map[time.Duration]bool{}
	for _, s := range spans {
		if s.Stage != trace.StageExecute || s.Node != observer || s.Start <= from || s.Start > from+window {
			continue
		}
		k := (s.Start - from + sampleStep - 1) / sampleStep
		seen[from+k*sampleStep] = true
	}
	out := make([]time.Duration, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// longestGap returns the longest interval in [from, to] between
// consecutive commit samples (window edges included) and its end.
func longestGap(samples []time.Duration, from, to time.Duration) (float64, time.Duration) {
	var gap, end time.Duration
	last := from
	for _, t := range append(slices.Clone(samples), to) {
		if t-last > gap {
			gap, end = t-last, t
		}
		last = t
	}
	return ms(gap), end
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
