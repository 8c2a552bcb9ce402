package main

import (
	"time"

	"massbft"
	"massbft/internal/simnet"
)

// A workload is one cluster configuration, its fault schedule and the
// virtual-time spans the benchmark measures on it.
type workload struct {
	name string
	// config builds the cluster configuration for a seed. The seed is the
	// only input that varies between runs of one workload.
	config func(seed int64) massbft.Config
	// warmup is the virtual time run before the measurement window; it is
	// part of every timed set-up.
	warmup time.Duration
	// vsPerWallSecond converts the requested run length (wall seconds) into
	// a virtual window. It is a fixed per-workload constant, never a
	// measurement, so the window and with it every virtual-time metric
	// depend only on the seed and the requested length.
	vsPerWallSecond float64
	// minWindow is the shortest window that still covers the fault schedule.
	minWindow time.Duration
	// wanTiers, when set, gives group g a per-node WAN bandwidth of
	// wanTiers[g%len(wanTiers)] bytes/s.
	wanTiers []float64
	// nodeCrashes and groupCrashes form the fault schedule.
	nodeCrashes  []nodeCrash
	groupCrashes []groupCrash
	// drainBudget bounds the virtual time DrainToAgreement may spend.
	drainBudget time.Duration
}

type nodeCrash struct {
	at, recoverAt time.Duration
	group, index  int
}

type groupCrash struct {
	at    time.Duration
	group int
}

// globeMapSeed places the regions of globe-scale.
const globeMapSeed = 1

var workloads = []*workload{
	// The paper's headline cluster at saturation: Aria execution, VTS
	// ordering and erasure-coded WAN replication carry the load; the
	// gateway and Ed25519 verification are bypassed.
	{
		name: "geo-ycsb",
		config: func(seed int64) massbft.Config {
			return massbft.Config{
				Groups:   []int{7, 7, 7},
				Protocol: massbft.ProtocolMassBFT,
				Workload: "ycsb-a",
				Latency:  massbft.Worldwide,
				Seed:     seed,
			}
		},
		warmup:          time.Second,
		vsPerWallSecond: 0.15,
		drainBudget:     6 * time.Second,
	},
	// Latency at a fixed offered rate rather than in saturation queueing:
	// slow-tier WAN chunks and cross-region ordering block, and four times
	// the streams of geo-ycsb load the simulator and core.
	{
		name: "globe-scale",
		config: func(seed int64) massbft.Config {
			groups := make([]int, 12)
			rates := make([]float64, len(groups))
			for i := range groups {
				groups[i] = 4
				rates[i] = 1500
			}
			// Config.Globe would place the regions from the run seed; the
			// map stays fixed here so that the seed varies the traffic only.
			topo := simnet.GlobeTopology(len(groups), globeMapSeed)
			return massbft.Config{
				Groups:    groups,
				Protocol:  massbft.ProtocolMassBFT,
				Workload:  "ycsb-a",
				Latency:   func(i, j int) time.Duration { return topo.Latency(i, j) },
				GroupRate: rates,
				Seed:      seed,
			}
		},
		// The bandwidth tiers Config.Globe assigns: 1 Gbps, 100 Mbps, 20 Mbps.
		wanTiers:        []float64{1e9 / 8, 100e6 / 8, 20e6 / 8},
		warmup:          time.Second,
		vsPerWallSecond: 0.15,
		drainBudget:     6 * time.Second,
	},
	// The client path (authenticated intake, dedup, f+1 reply certificates)
	// and the recovery and failover paths do the work; execution and erasure
	// coding are light, and the group crash makes a time without service.
	{
		name: "gateway-faults",
		config: func(seed int64) massbft.Config {
			return massbft.Config{
				Groups:         []int{4, 4, 4, 4},
				Protocol:       massbft.ProtocolMassBFT,
				Workload:       "smallbank",
				Latency:        massbft.Nationwide,
				Seed:           seed,
				RealCrypto:     true,
				GatewayClients: 256,
				ResubmitJitter: true,
				WANDropRate:    0.02,
				WANDupRate:     0.01,
				// No LAN loss: 0.5% LAN drop stalls PBFT slots until catch-up
				// in some seeds and not others (over 16 seeds the window's p50
				// ranged 116-240 ms, against 119-144 ms without it), so one
				// run could not be told from the next.
				FaultJitter:        0.1,
				RepairTimeout:      150 * time.Millisecond,
				ViewChangeTimeout:  400 * time.Millisecond,
				TakeoverTimeout:    400 * time.Millisecond,
				CheckpointInterval: 500 * time.Millisecond,
			}
		},
		warmup:          time.Second,
		vsPerWallSecond: 0.7,
		// The group crash at 4 s is followed by about 2.2 s without commits;
		// the window must reach well past the takeover.
		minWindow:    7 * time.Second,
		nodeCrashes:  []nodeCrash{{at: 2 * time.Second, recoverAt: 3 * time.Second, group: 1, index: 2}},
		groupCrashes: []groupCrash{{at: 4 * time.Second, group: 2}},
		drainBudget:  12 * time.Second,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// window is the virtual measurement window for a requested run length.
func (w *workload) window(seconds int) time.Duration {
	d := time.Duration(float64(seconds) * w.vsPerWallSecond * float64(time.Second)).Round(100 * time.Millisecond)
	return max(d, w.minWindow)
}

func (w *workload) faulted() bool { return len(w.nodeCrashes)+len(w.groupCrashes) > 0 }

// prepare sets the WAN bandwidth tiers and arms the fault schedule on a
// fresh cluster.
func (w *workload) prepare(c *massbft.Cluster, groups []int) {
	if len(w.wanTiers) > 0 {
		for g, n := range groups {
			for i := 0; i < n; i++ {
				c.SetNodeBandwidth(g, i, w.wanTiers[g%len(w.wanTiers)])
			}
		}
	}
	for _, f := range w.nodeCrashes {
		c.CrashNode(f.at, f.group, f.index)
		if f.recoverAt > 0 {
			c.RecoverNode(f.recoverAt, f.group, f.index)
		}
	}
	for _, f := range w.groupCrashes {
		c.CrashGroup(f.at, f.group)
	}
}

// lastFault is the virtual time of the last scheduled crash.
func (w *workload) lastFault() time.Duration {
	var t time.Duration
	for _, f := range w.nodeCrashes {
		t = max(t, f.at)
	}
	for _, f := range w.groupCrashes {
		t = max(t, f.at)
	}
	return t
}
