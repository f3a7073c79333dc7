package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/pbist"
)

// metricDef is one reported metric: its name and unit exactly as in
// BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0), in
// BENCHMARK.json order. README.md says how each is reduced; the sample
// count behind each is printed on the stamp line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"get_mkeys_s", "Mkeys/s"},
	{"put_mkeys_s", "Mkeys/s"},
	{"delete_mkeys_s", "Mkeys/s"},
	{"sat_kops", "kops"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"bytes_per_key", "B/key"},
}

// perLayer are the metrics of a traced run (--trace 1), in
// BENCHMARK.json order. A layer a workload does not exercise reports 0;
// notApplicable lists which.
var perLayer = []metricDef{
	{"iindex.find_ns", "ns"},
	{"iindex.approx_err", "slots"},
	{"core.get_ns_per_key", "ns/key"},
	{"core.put_ns_per_key", "ns/key"},
	{"core.delete_ns_per_key", "ns/key"},
	{"core.height", "nodes"},
	{"core.dead_per_live", "ratio"},
	{"core.rebuild.count", "count"},
	{"core.rebuild.keys_per_write", "ratio"},
	{"core.rebuild.p99_ns", "ns"},
	{"core.rebuild.peak_debt_keys", "keys"},
	{"core.mvcc.published", "count"},
	{"core.mvcc.recycled_share", "share"},
	{"arena.hit_rate", "share"},
	{"arena.allocs_per_key", "allocs/key"},
	{"arena.alloc_bytes_per_key", "B/key"},
	{"parallel.sorted_dedup_ns_per_key", "ns/key"},
	{"parallel.speedup", "ratio"},
	{"pbist.normalize_get_ns_per_key", "ns/key"},
	{"pbist.normalize_put_ns_per_key", "ns/key"},
	{"pbist.normalize_delete_ns_per_key", "ns/key"},
	{"combine.service_p50_ns", "ns"},
	{"combine.service_p99_ns", "ns"},
	{"combine.epoch_ops", "ops"},
	{"combine.epoch_keys", "keys"},
	{"combine.gather_wait_p99_ns", "ns"},
	{"combine.handoff_ns", "ns"},
	{"combine.phase.sort_share", "share"},
	{"combine.phase.read_share", "share"},
	{"combine.phase.replay_share", "share"},
	{"combine.phase.write_share", "share"},
	{"combine.phase.rebuild_share", "share"},
	{"combine.phase.publish_share", "share"},
	{"shard.split_ns_per_key", "ns/key"},
	{"shard.stitch_ns_per_key", "ns/key"},
	{"shard.imbalance", "ratio"},
	{"ladder.core_ns_per_op", "ns/op"},
	{"ladder.map_ns_per_op", "ns/op"},
	{"ladder.combiner_ns_per_op", "ns/op"},
	{"ladder.concurrent_ns_per_op", "ns/op"},
	{"ladder.sharded1_ns_per_op", "ns/op"},
	{"ladder.sharded_ns_per_op", "ns/op"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.sched_latency_p99_us", "us"},
	{"gen.offered_kops", "kops"},
	{"gen.achieved_kops", "kops"},
	{"gen.late_p50_us", "us"},
	{"gen.late_p99_us", "us"},
	{"tail.p999_us", "us"},
	{"trace.overhead", "ratio"},
	{"error_rate", "share"},
}

// measured is one metric value with the number of samples behind it.
type measured struct {
	value   float64
	samples int
}

type metricSet map[string]measured

func (m metricSet) set(name string, v float64, samples int) {
	m[name] = measured{value: v, samples: samples}
}

// idleLayers names, per workload, the metric prefixes of layers the
// workload does not exercise; those metrics report 0 by design.
var idleLayers = map[string][]string{
	"batch": {"combine.", "shard.", "ladder.", "gen.", "tail.", "core.mvcc."},
	"churn": {"ladder."},
}

// notApplicable lists the per-layer metrics a workload reports as 0
// because it does not exercise their layer.
func notApplicable(workload string) []string {
	var out []string
	for _, d := range perLayer {
		for _, prefix := range idleLayers[workload] {
			if strings.HasPrefix(d.name, prefix) {
				out = append(out, d.name)
				break
			}
		}
	}
	return out
}

// registryLayers reads the library's own instruments. writeKeys is the
// keys sent in put and delete calls while the registry was attached.
func registryLayers(m metricSet, s pbist.MetricsSnapshot, writeKeys float64) {
	c, g, h := s.Counters, s.Gauges, s.Histograms
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m.set("core.rebuild.count", float64(c["core.rebuild.count"]), 1)
	m.set("core.rebuild.keys_per_write", ratio(float64(c["core.rebuild.keys"]), writeKeys), 1)
	m.set("core.rebuild.p99_ns", float64(h["core.rebuild.duration_ns"].P99), int(h["core.rebuild.duration_ns"].Count))
	m.set("core.mvcc.published", float64(c["core.mvcc.published"]), 1)
	m.set("core.mvcc.recycled_share", ratio(float64(c["core.mvcc.chunks_recycled"]), float64(c["core.mvcc.chunks_retired"])), 1)
	m.set("arena.hit_rate", ratio(float64(g["core.arena.scratch_reuses"]), float64(g["core.arena.scratch_gets"])), 1)

	epochs := float64(c["combine.epochs"])
	m.set("combine.epoch_ops", ratio(float64(c["combine.ops"]), epochs), int(epochs))
	m.set("combine.epoch_keys", ratio(float64(c["combine.keys"]), epochs), int(epochs))
	gw := h["combine.epoch.gather_wait_ns"]
	m.set("combine.gather_wait_p99_ns", float64(gw.P99), int(gw.Count))
	phases := []string{"sort", "read", "replay", "write", "rebuild", "publish"}
	var total float64
	for _, ph := range phases {
		total += float64(h["combine.epoch."+ph+"_ns"].Sum)
	}
	for _, ph := range phases {
		m.set("combine.phase."+ph+"_share", ratio(float64(h["combine.epoch."+ph+"_ns"].Sum), total), int(epochs))
	}
}

// runtimeLayers reports the Go runtime's view of a traced phase that
// moved keys keys.
func runtimeLayers(m metricSet, d rtDelta, keys float64) {
	m.set("runtime.gc_cycles", d.gcCycles, 1)
	m.set("runtime.gc_pause_p99_us", d.gcPauseP99*1e6, int(d.gcCycles))
	m.set("runtime.sched_latency_p99_us", d.schedP99*1e6, 1)
	m.set("arena.allocs_per_key", d.allocs/keys, 1)
	m.set("arena.alloc_bytes_per_key", d.allocBytes/keys, 1)
}

// writeResult prints the stamp line and then the result line, which
// must be the last line of standard output.
func writeResult(w io.Writer, stamp map[string]any, defs []metricDef, m metricSet, attempted, failed int64, correct bool) error {
	metrics := make(map[string]any, len(defs))
	samples := make(map[string]int, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = map[string]any{"value": v.value, "unit": d.unit}
		samples[d.name] = v.samples
	}
	stamp["samples"] = samples
	line, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	res, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, res)
	return err
}
