package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"massbft"
	"massbft/internal/aria"
	"massbft/internal/erasure"
	"massbft/internal/keys"
	"massbft/internal/plan"
	"massbft/internal/statedb"
	"massbft/internal/types"
	wlgen "massbft/internal/workload"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in output order.
var endToEnd = []metricDef{
	{"tput_tps", "txn/s"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"wan_kb_per_entry", "KiB"},
	{"commit_share", "ratio"},
	{"outage_ms", "ms"},
	{"sim_wall_s_per_vs", "s/vs"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// profiledLayers are the massbft/internal packages whose CPU share the
// traced run reports; samples charged to any other package count as other.
var profiledLayers = []string{
	"aria", "statedb", "workload", "order", "replication", "erasure", "gf256",
	"merkle", "pbft", "keys", "gateway", "core", "simnet", "types", "cluster", "ledger",
}

// traceStages maps critical-path stages of the tracer to metric names.
var traceStages = []struct{ stage, metric string }{
	{"ordering-wait", "order.wait_ms"},
	{"encode", "replication.encode_ms"},
	{"wan-chunk", "replication.wan_chunk_ms"},
	{"chunk-collect", "replication.collect_ms"},
	{"rebuild", "replication.rebuild_ms"},
	{"cert-assembly", "replication.cert_assembly_ms"},
	{"pbft-prepare", "pbft.prepare_ms"},
	{"pbft-commit", "pbft.commit_ms"},
}

// perLayer lists the metrics of a traced run, in output order.
var perLayer = func() []metricDef {
	defs := []metricDef{}
	for _, l := range profiledLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio"})
	}
	defs = append(defs, metricDef{"other.cpu_share", "ratio"}, metricDef{"runtime.gc_share", "ratio"})
	for _, s := range traceStages {
		defs = append(defs, metricDef{s.metric, "ms"})
	}
	return append(defs,
		metricDef{"aria.exec_us_per_txn", "us"},
		metricDef{"aria.abort_share", "ratio"},
		metricDef{"erasure.split_us_per_mb", "us/MB"},
		metricDef{"erasure.reconstruct_us_per_mb", "us/MB"},
		metricDef{"pbft.txns_per_entry", "txn"},
		metricDef{"keys.sign_us", "us"},
		metricDef{"keys.verify_us", "us"},
		metricDef{"keys.cert_cache_hit_ratio", "ratio"},
		metricDef{"gateway.verified", "count"},
		metricDef{"gateway.rejected_overload", "count"},
		metricDef{"gateway.memo_hit_ratio", "ratio"},
		metricDef{"gateway.queue_peak", "count"},
		metricDef{"client.resubmits_per_req", "ratio"},
		metricDef{"core.record_retries", "count"},
		metricDef{"core.chunk_repairs", "count"},
		metricDef{"core.fetch_retries", "count"},
		metricDef{"core.slot_catchups", "count"},
		metricDef{"core.state_transfers", "count"},
		metricDef{"core.group_deaths", "count"},
		metricDef{"simnet.msgs_per_txn", "msg/txn"},
		metricDef{"simnet.net_dropped", "count"},
		metricDef{"runtime.alloc_mb_per_vs", "MiB/vs"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.spans", "count"},
		metricDef{"trace.dropped", "count"},
		metricDef{"profile.samples", "count"},
	)
}()

// layerInputs is what the traced run measured: the untraced pass with its
// CPU profile and allocation total, and the traced pass.
type layerInputs struct {
	cfg          massbft.Config
	plain, trace *pass
	shares       map[string]float64
	samples      int64
	allocBytes   uint64
	windowVS     float64
}

func layerMetrics(in layerInputs) (map[string]float64, error) {
	v := in.plain.virt
	out := map[string]float64{}
	var named float64
	for _, l := range profiledLayers {
		out[l+".cpu_share"] = in.shares[l]
		named += in.shares[l]
	}
	out["runtime.gc_share"] = in.shares[gcBucket]
	out["other.cpu_share"] = max(0, 1-named-in.shares[gcBucket])
	stageAvg := map[string]time.Duration{}
	if in.trace.trace != nil {
		for _, s := range in.trace.trace.Stages {
			stageAvg[s.Stage] = s.Avg
		}
		out["trace.spans"] = float64(in.trace.trace.Spans)
		out["trace.dropped"] = float64(in.trace.trace.Dropped)
	}
	for _, s := range traceStages {
		out[s.metric] = ms(stageAvg[s.stage])
	}
	txns := v.Committed + v.Aborted
	out["aria.abort_share"] = ratio(float64(v.Aborted), float64(txns))
	out["pbft.txns_per_entry"] = ratio(float64(txns), float64(v.Samples))
	out["keys.cert_cache_hit_ratio"] = ratio(float64(in.plain.certHits), float64(in.plain.certHits+in.plain.certMisses))
	c := v.Counters
	out["gateway.verified"] = float64(c["gateway-verified"])
	out["gateway.rejected_overload"] = float64(c["gateway-rejected-overload"])
	out["gateway.memo_hit_ratio"] = ratio(float64(c["gateway-memo-hit"]),
		float64(c["gateway-memo-hit"]+c["gateway-verified"]+c["gateway-verify-fail"]))
	out["gateway.queue_peak"] = float64(c["gateway-queue-peak"])
	out["client.resubmits_per_req"] = ratio(float64(v.ClientResubmits), float64(v.ClientCommitted+v.ClientGaveUp))
	out["core.record_retries"] = float64(c["record-retries"])
	out["core.chunk_repairs"] = float64(c["repair-reqs"])
	out["core.fetch_retries"] = float64(c["fetch-retries"])
	out["core.slot_catchups"] = float64(c["slot-catchups"])
	out["core.state_transfers"] = float64(c["state-transfers"])
	out["core.group_deaths"] = float64(c["group-deaths"])
	out["simnet.msgs_per_txn"] = ratio(float64(v.MsgsSent), float64(v.Committed))
	out["simnet.net_dropped"] = float64(c["net-dropped"])
	out["runtime.alloc_mb_per_vs"] = float64(in.allocBytes) / (1 << 20) / in.windowVS
	out["trace.overhead_ratio"] = (in.trace.setup + in.trace.window).Seconds() / (in.plain.setup + in.plain.window).Seconds()
	out["profile.samples"] = float64(in.samples)

	batch := int(math.Round(out["pbft.txns_per_entry"]))
	micro, err := microbench(in.cfg, max(batch, 1))
	if err != nil {
		return nil, err
	}
	for k, x := range micro {
		out[k] = x
	}
	return out, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// microReps is how many times each layer call is timed; the median is kept.
const microReps = 5

// microbench times the layers' exported functions on this workload's own
// inputs: entries of the observed mean batch size drawn from group 0's
// generator, at the cluster's chunking geometry.
func microbench(cfg massbft.Config, batch int) (map[string]float64, error) {
	gen, err := wlgen.New(cfg.Workload, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Enough batches for about 20k transactions per repetition.
	nBatches := max(1, 20000/batch)
	batches := make([][]types.Transaction, nBatches)
	for i := range batches {
		batches[i] = make([]types.Transaction, batch)
		for j := range batches[i] {
			batches[i][j] = gen.Next(0)
		}
	}
	out := map[string]float64{}

	var exec []float64
	for r := 0; r < microReps; r++ {
		db := statedb.New()
		gen.Load(db)
		eng := aria.NewEngine(db, gen.Executor())
		start := time.Now()
		for _, b := range batches {
			if _, err := eng.ExecuteBatch(b); err != nil {
				return nil, fmt.Errorf("aria: %w", err)
			}
		}
		exec = append(exec, us(time.Since(start))/float64(nBatches*batch))
	}
	out["aria.exec_us_per_txn"] = median(exec)

	p, err := plan.New(cfg.Groups[0], cfg.Groups[1%len(cfg.Groups)])
	if err != nil {
		return nil, err
	}
	enc, err := erasure.Cached(p.Data, p.Parity)
	if err != nil {
		return nil, err
	}
	entry := (&types.Entry{ID: types.EntryID{GID: 0, Seq: 1}, Txns: batches[0]}).Encode()
	mb := float64(len(entry)) / 1e6
	const iters = 50
	var split, rebuild []float64
	for r := 0; r < microReps; r++ {
		var shards [][]byte
		start := time.Now()
		for i := 0; i < iters; i++ {
			if shards, err = enc.Split(entry); err != nil {
				return nil, fmt.Errorf("erasure split: %w", err)
			}
		}
		split = append(split, us(time.Since(start))/iters/mb)
		var spent time.Duration
		for i := 0; i < iters; i++ {
			// Worst case: the parity budget is spent on data shards.
			work := slices.Clone(shards)
			for j := 0; j < p.Parity; j++ {
				work[j] = nil
			}
			start := time.Now()
			if err := enc.Reconstruct(work); err != nil {
				return nil, fmt.Errorf("erasure reconstruct: %w", err)
			}
			spent += time.Since(start)
		}
		rebuild = append(rebuild, us(spent)/iters/mb)
	}
	out["erasure.split_us_per_mb"] = median(split)
	out["erasure.reconstruct_us_per_mb"] = median(rebuild)

	pairs, reg, err := keys.GenerateCluster([]int{1}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	reg.SetTrustAll(false)
	kp, id := pairs[0][0], keys.NodeID{}
	digest := keys.Hash(entry)
	msg := digest[:]
	var sig []byte
	var signs, verifies []float64
	for r := 0; r < microReps; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			sig = kp.Sign(msg)
		}
		signs = append(signs, us(time.Since(start))/iters)
		start = time.Now()
		for i := 0; i < iters; i++ {
			if !reg.Verify(id, msg, sig) {
				return nil, fmt.Errorf("keys: signature did not verify")
			}
		}
		verifies = append(verifies, us(time.Since(start))/iters)
	}
	out["keys.sign_us"] = median(signs)
	out["keys.verify_us"] = median(verifies)
	return out, nil
}
