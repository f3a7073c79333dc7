package main

import (
	"runtime"
	"time"

	"repro/internal/dist"
	"repro/pbist"
)

// batchPass is what one run of batch rounds measured.
type batchPass struct {
	rounds  int
	callNS  [numKinds][]float64 // per-call durations by kind
	roundNS []float64           // sum of the three call durations per round
	calls   *windowed           // every call duration, by start time
	keys    [numKinds]int64
	peak    int64 // peak rebuild debt seen after a call (traced only)
}

// runBatchRounds sends rounds of GetBatch, PutBatch, DeleteBatch on
// fresh uniform batches until d has passed or, if rounds > 0, that many
// rounds are done. Only the library calls are timed; drawing batches
// and checking answers happen between them.
func runBatchRounds(p params, cfg *runCfg, r *dist.RNG, m *pbist.Map[int64, uint64], or oracle,
	d time.Duration, rounds int, tr *tracer, reg *pbist.Metrics) batchPass {
	bp := batchPass{calls: newWindowed(p.Window)}
	names := [numKinds]string{"pbist.Map.GetBatch", "pbist.Map.PutBatch", "pbist.Map.DeleteBatch"}
	clk := cfg.clk
	from := clk.now()
	end := from + d
	vals := make([]uint64, p.CallKeys)
	found := make([]bool, p.CallKeys)
	var o op
	call := batchCaller(m)
	for clk.now() < end && (rounds == 0 || bp.rounds < rounds) {
		tr.begin("batch.round")
		var round float64
		for k := range numKinds {
			tr.begin("gen.batch")
			o.kind = k
			o.keys = freshBatch(r, p)
			o.vals = o.vals[:0]
			if k == opPut {
				version := r.Uint64()
				for _, key := range o.keys {
					o.vals = append(o.vals, value(key, version))
				}
			}
			tr.end()
			tr.begin(names[k])
			t0 := clk.now()
			count, err := safeCall(call, &o, vals, found)
			dur := float64(clk.now() - t0)
			tr.end()
			tr.begin("oracle.check")
			cfg.verify(or, &o, vals, found, count, err)
			clear(found)
			tr.end()
			bp.callNS[k] = append(bp.callNS[k], dur)
			bp.calls.add(t0-from, dur)
			bp.keys[k] += int64(len(o.keys))
			round += dur
			if reg != nil {
				bp.peak = max(bp.peak, reg.Snapshot().Gauges["core.rebuild.debt_keys"])
			}
		}
		tr.end()
		bp.roundNS = append(bp.roundNS, round)
		bp.rounds++
	}
	return bp
}

func (bp *batchPass) e2e(p params, m metricSet) {
	setRates(m, p.CallKeys, bp.callNS)
	total := 0.0
	for _, d := range bp.roundNS {
		total += d
	}
	m.set("sat_kops", float64(int(numKinds)*len(bp.roundNS))/total*1e6, len(bp.roundNS)) // calls per ns → kcalls/s
	// A window holds about a dozen calls, so its p99 is its slowest
	// call; the median over windows keeps one rare root rebuild from
	// deciding the figure.
	m.set("p50_us", bp.calls.medianOfQuantile(0.50, 1)/1e3, bp.calls.count())
	m.set("p99_us", bp.calls.medianOfQuantile(0.99, 1)/1e3, bp.calls.count())
}

// batchWorkload runs batch: one client, bulk-loaded pbist.Map, rounds
// of 250k-key batches.
func batchWorkload(p params, cfg *runCfg, traced bool, m metricSet) (layers metricSet, tracers []*tracer, err error) {
	root := rootRNG(p)
	in := genInputs(p, root.Fork())
	d := time.Duration(p.Seconds * float64(time.Second))
	// start loads a Map and runs the fixed warm-up rounds on it.
	start := func(opts pbist.Options) (*pbist.Map[int64, uint64], oracle) {
		mp := pbist.NewMapFromItems[int64, uint64](opts, in.keys, in.vals)
		or := newOracle(in, 0, 1)
		runBatchRounds(p, cfg, root.Fork(), mp, or, time.Hour, p.WarmCalls, nil, nil)
		return mp, or
	}
	check := func(mp *pbist.Map[int64, uint64], or oracle) error {
		ks, vs := mp.Items()
		return checkItems(ks, vs, []oracle{or})
	}

	if !traced {
		or := newOracle(in, 0, 1)
		heap0 := liveHeap()
		var mp *pbist.Map[int64, uint64]
		setups := make([]float64, p.SetupReps)
		for i := range setups {
			mp = nil
			runtime.GC() // each load starts from a collected heap
			t := time.Now()
			mp = pbist.NewMapFromItems[int64, uint64](pbist.Options{}, in.keys, in.vals)
			setups[i] = time.Since(t).Seconds()
		}
		m.set("setup_s", median(setups), len(setups))
		runBatchRounds(p, cfg, root.Fork(), mp, or, time.Hour, p.WarmCalls, nil, nil)
		more := func(n int) { runBatchRounds(p, cfg, root.Fork(), mp, or, time.Hour, n, nil, nil) }
		m.set("bytes_per_key", bytesPerKey(heap0, p.WarmCalls, more, mp.Len), memSamples)
		bp := runBatchRounds(p, cfg, root.Fork(), mp, or, d, 0, nil, nil)
		err = check(mp, or)
		bp.e2e(p, m)
		return nil, nil, err
	}

	layers = metricSet{}
	mp, or := start(pbist.Options{})
	plain := runBatchRounds(p, cfg, root.Fork(), mp, or, d/2, 0, nil, nil)
	err = check(mp, or)

	reg := pbist.NewMetrics()
	mp, or = start(pbist.Options{Metrics: reg})
	tr := newTracer(cfg.clk, 1)
	rt0 := readRuntime()
	bp := runBatchRounds(p, cfg, root.Fork(), mp, or, d/2, 0, tr, reg)
	rt := runtimeDelta(rt0, readRuntime())
	if cerr := check(mp, or); err == nil {
		err = cerr
	}
	layers.set("trace.overhead", median(bp.roundNS)/median(plain.roundNS), len(bp.roundNS))
	registryLayers(layers, reg.Snapshot(), float64(bp.keys[opPut]+bp.keys[opDelete]))
	layers.set("core.rebuild.peak_debt_keys", float64(bp.peak), bp.rounds*int(numKinds))
	runtimeLayers(layers, rt, float64(bp.keys[opGet]+bp.keys[opPut]+bp.keys[opDelete]))
	mp, or = nil, nil

	probeLayers(p, in, cfg, tr, layers)
	return layers, []*tracer{tr}, err
}
