package main

import (
	"fmt"
	"runtime"
	"time"
)

// params is every knob of one workload. The values below are the
// benchmark's contract: later changes cite results by workload name,
// so changing a value here changes what the name means. All of them
// are stamped into every result.
type params struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Clients  int     `json:"clients"`

	// Base set. batch and point: every key of [0, Universe) with
	// probability Density (the paper's §9 half-dense base). churn:
	// Clusters dense windows of ClusterWidth keys, each key present
	// with probability Density, windows evenly spaced over
	// [0, ClusterSpan).
	Universe     int64   `json:"universe,omitempty"`
	Density      float64 `json:"density"`
	Clusters     int     `json:"clusters,omitempty"`
	ClusterWidth int64   `json:"cluster_width,omitempty"`
	ClusterSpan  int64   `json:"cluster_span,omitempty"`

	// CallKeys is the keys per client call; Mix the get/put/delete
	// percentages of the serving scripts (batch sends all three kinds
	// every round).
	CallKeys int    `json:"call_keys"`
	Mix      [3]int `json:"mix_get_put_delete"`

	// RateKops is the offered rate of the open-loop phase in thousand
	// client calls per second, all clients together; 0 means the
	// workload has no open-loop phase. ClosedShare is the share of
	// Seconds given to the closed-loop phase.
	RateKops    float64 `json:"rate_kops,omitempty"`
	ClosedShare float64 `json:"closed_share,omitempty"`
	// Window is the length of the sub-windows whose latency
	// quantiles are reduced to medians: batch call time on batch,
	// open-loop charged latency on point and churn.
	Window time.Duration `json:"window_ns,omitempty"`

	// WarmCalls is the fixed warm-up before anything is timed: calls
	// per client (rounds on batch). bytes_per_key is taken after it, so
	// the memory figure does not depend on how fast the timed phases
	// run.
	WarmCalls int `json:"warm_calls"`

	// SetupReps is how many times the structure is bulk-loaded to
	// give setup_s as a median.
	SetupReps int `json:"setup_reps"`

	// Probe sizes of the traced run: ProbeRounds calls of ProbeKeys
	// keys each through every layer probe, LadderOps single-key ops
	// per ladder rung.
	ProbeKeys   int `json:"probe_keys"`
	ProbeRounds int `json:"probe_rounds"`
	LadderOps   int `json:"ladder_ops,omitempty"`
}

// workloadNames lists the workloads BENCHMARK.json gates, in its order.
var workloadNames = []string{"batch", "point"}

// allWorkloads adds churn, which runs the same way but is not gated:
// on a shared 2-CPU machine its figures swing with the machine's state
// by more than any bound BENCHMARK.json may set (README.md).
var allWorkloads = []string{"batch", "point", "churn"}

// workloadParams returns the parameters of a named workload at the
// given seed and run length.
func workloadParams(name string, seed uint64, seconds float64) (params, error) {
	clients := min(2, runtime.NumCPU())
	p := params{Workload: name, Seed: seed, Seconds: seconds, Clients: clients, Density: 0.5}
	switch name {
	case "batch":
		// n ≈ 2M keys (≈32 MiB of keys and values, beyond a 4 MiB L2),
		// fresh uniform batches of m = 250k keys: the §9 setting.
		p.Clients = 1
		p.Universe = 4 << 20
		p.CallKeys = 250_000
		p.Window = 2 * time.Second
		p.WarmCalls = 2
		p.SetupReps = 5
		p.ProbeKeys = 250_000
		p.ProbeRounds = 3
	case "point":
		// Same 2M base, single-key 90/5/5 traffic: the serving path.
		p.Universe = 4 << 20
		p.CallKeys = 1
		p.Mix = [3]int{90, 5, 5}
		p.RateKops = 25
		p.ClosedShare = 0.4
		p.Window = 50 * time.Millisecond
		p.WarmCalls = 50_000
		p.SetupReps = 5
		p.ProbeKeys = 2
		p.ProbeRounds = 20_000
		p.LadderOps = 100_000
	case "churn":
		// n ≈ 64k keys (≈1 MiB, cache resident) in 64 dense clusters,
		// 32-key mini-batches at 10/45/45: write-heavy, skewed.
		p.Clusters = 64
		p.ClusterWidth = 2048
		p.ClusterSpan = 1 << 40
		p.CallKeys = 32
		p.Mix = [3]int{10, 45, 45}
		p.RateKops = 3
		p.ClosedShare = 0.4
		p.Window = 500 * time.Millisecond
		p.WarmCalls = 5_000
		p.SetupReps = 40
		p.ProbeKeys = 32
		p.ProbeRounds = 2_000
	default:
		return params{}, fmt.Errorf("unknown workload %q (want one of %v)", name, allWorkloads)
	}
	return p, nil
}
