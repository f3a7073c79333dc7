package main

import (
	"errors"
	"runtime"
	"slices"
	"time"

	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/iindex"
	"repro/internal/parallel"
	"repro/internal/shard"
	"repro/pbist"
)

// The probes of the traced run time calls into each layer's own entry
// points from outside, on the workload's own base set, key
// distribution and call size (p.ProbeKeys keys per call; the shard
// probe uses 32-key mini-batches). Every probe call runs inside a span
// under its probe's parent span.

// probeLayers runs every probe that applies to p.Workload and sets the
// rest of the per-layer metrics to 0.
func probeLayers(p params, in inputs, cfg *runCfg, tr *tracer, m metricSet) {
	r := rootRNG(p)
	r.Fork() // the inputs' stream
	one := p
	one.Clients = 1 // probes draw from the whole key space
	gen := newKeyGen(one, in, r.Fork(), 0)

	tr.do("probe.iindex", func() { probeIndex(p, in, gen, tr, m) })
	tr.do("probe.core", func() { probeCore(p, in, gen, tr, m) })
	for _, name := range notApplicable(p.Workload) {
		if _, ok := m[name]; !ok {
			m.set(name, 0, 0)
		}
	}
	if p.Workload != "batch" {
		tr.do("probe.shard", func() { probeShard(in, cfg, gen, tr, m) })
	}
	if p.Workload == "point" {
		seed := r.Uint64()
		tr.do("probe.ladder", func() { probeLadder(p, in, cfg, seed, tr, m) })
	}
}

// sinkPos keeps the timed Find loop from being optimized away.
var sinkPos int

// probeIndex times iindex.Find over an index of the stored keys,
// probing keys of the workload's distribution, and measures how far
// the index's estimate lands from the true slot.
func probeIndex(p params, in inputs, gen *keyGen, tr *tracer, m metricSet) {
	ix := iindex.Build(in.keys, 0)
	probes := make([]int64, p.ProbeKeys*p.ProbeRounds)
	for i := range probes {
		probes[i] = gen.next()
	}
	var errSum float64
	for _, x := range probes {
		pos, _ := iindex.Find(in.keys, &ix, x)
		d := ix.Approx(float64(x)) - pos
		errSum += float64(max(d, -d))
	}
	var per []float64
	for range 5 {
		tr.begin("iindex.Find")
		t0 := time.Now()
		for _, x := range probes {
			pos, _ := iindex.Find(in.keys, &ix, x)
			sinkPos += pos
		}
		per = append(per, float64(time.Since(t0))/float64(len(probes)))
		tr.end()
	}
	m.set("iindex.find_ns", median(per), len(per))
	m.set("iindex.approx_err", errSum/float64(len(probes)), len(probes))
}

// sortedUnique returns a sorted duplicate-free copy of keys.
func sortedUnique(keys []int64) []int64 {
	s := slices.Clone(keys)
	slices.Sort(s)
	return slices.Compact(s)
}

// probeCore drives a core.Tree and a pbist.Map loaded with the same
// base through the same calls: the core tree gets each batch sorted,
// the Map gets it as drawn, so their difference is pbist's
// normalization. It also times parallel.SortedDedup on each batch and
// the core get at one worker against GOMAXPROCS workers.
func probeCore(p params, in inputs, gen *keyGen, tr *tracer, m metricSet) {
	workers := runtime.GOMAXPROCS(0)
	poolN, pool1 := parallel.NewPool(workers), parallel.NewPool(1)
	t := core.NewFromSortedKV(core.Config{}, poolN, in.keys, in.vals)
	mp := pbist.NewMapFromItems[int64, uint64](pbist.Options{}, in.keys, in.vals)

	var coreNS, mapNS [numKinds][]float64
	var dedupNS, speedup []float64
	timed := func(name string, keys int, f func()) float64 {
		tr.begin(name)
		t0 := time.Now()
		f()
		d := float64(time.Since(t0)) / float64(keys)
		tr.end()
		return d
	}
	draw := func(version uint64) ([]int64, []int64, []uint64, []uint64) {
		keys := make([]int64, p.ProbeKeys)
		for i := range keys {
			keys[i] = gen.next()
		}
		sorted := sortedUnique(keys)
		vals := make([]uint64, len(keys))
		for i, k := range keys {
			vals[i] = value(k, version)
		}
		svals := make([]uint64, len(sorted))
		for i, k := range sorted {
			svals[i] = value(k, version)
		}
		return keys, sorted, vals, svals
	}
	for round := range p.ProbeRounds {
		keys, sorted, _, _ := draw(0)
		n := len(keys)
		dedupNS = append(dedupNS, timed("parallel.SortedDedup", n, func() { parallel.SortedDedup(poolN, slices.Clone(keys)) }))
		coreNS[opGet] = append(coreNS[opGet], timed("core.Tree.GetBatched", n, func() { t.GetBatched(sorted) }))
		mapNS[opGet] = append(mapNS[opGet], timed("pbist.Map.GetBatch", n, func() { mp.GetBatch(keys) }))
		t.SetPool(pool1)
		single := timed("core.Tree.GetBatched.1worker", n, func() { t.GetBatched(sorted) })
		t.SetPool(poolN)
		speedup = append(speedup, single/coreNS[opGet][len(coreNS[opGet])-1])

		keys, sorted, vals, svals := draw(uint64(round + 1))
		coreNS[opPut] = append(coreNS[opPut], timed("core.Tree.PutBatched", n, func() { t.PutBatched(sorted, svals) }))
		mapNS[opPut] = append(mapNS[opPut], timed("pbist.Map.PutBatch", n, func() { mp.PutBatch(keys, vals) }))

		keys, sorted, _, _ = draw(0)
		coreNS[opDelete] = append(coreNS[opDelete], timed("core.Tree.RemoveBatched", n, func() { t.RemoveBatched(sorted) }))
		mapNS[opDelete] = append(mapNS[opDelete], timed("pbist.Map.DeleteBatch", n, func() { mp.DeleteBatch(keys) }))
	}
	for k, kind := range kindNames {
		m.set("core."+kind+"_ns_per_key", median(coreNS[k]), len(coreNS[k]))
		m.set("pbist.normalize_"+kind+"_ns_per_key", median(mapNS[k])-median(coreNS[k]), len(mapNS[k]))
	}
	m.set("parallel.sorted_dedup_ns_per_key", median(dedupNS), len(dedupNS))
	m.set("parallel.speedup", median(speedup), len(speedup))
	st := t.Stats()
	m.set("core.height", float64(st.Height), 1)
	m.set("core.dead_per_live", float64(st.DeadKeys)/float64(max(st.LiveKeys, 1)), 1)
}

// shardProbeKeys is the mini-batch size of the shard probe: the
// sharded frontend's batched calls on churn carry 32 keys.
const shardProbeKeys = 32

// probeShard times the scatter and stitch kernels of the sharded
// frontend on 32-key mini-batches of the workload's keys, with the
// partitioner NewShardedFromItems builds by default (quantiles of the
// base set), and reports how evenly the keys spread over the shards.
func probeShard(in inputs, cfg *runCfg, gen *keyGen, tr *tracer, m metricSet) {
	s := pbist.NewSharded[int64, uint64](pbist.ShardedOptions{})
	shards := s.Shards()
	s.Close()
	part := shard.NewRangeQuantiles(shards, in.keys)
	var split, stitch []float64
	perShard := make([]int, shards)
	keys := make([]int64, shardProbeKeys)
	vals := make([]uint64, shardProbeKeys)
	dst := make([]uint64, shardProbeKeys)
	const rounds = 2000
	for range rounds {
		for i := range keys {
			keys[i] = gen.next()
			vals[i] = value(keys[i], 0)
		}
		tr.begin("shard.SplitPairs")
		t0 := time.Now()
		_, vparts, pos := shard.SplitPairs(part, keys, vals)
		split = append(split, float64(time.Since(t0))/float64(len(keys)))
		tr.end()
		tr.begin("shard.StitchOne")
		t0 = time.Now()
		for sh := range vparts {
			shard.StitchOne(dst, vparts[sh], pos[sh])
		}
		stitch = append(stitch, float64(time.Since(t0))/float64(len(keys)))
		tr.end()
		for sh := range vparts {
			perShard[sh] += len(vparts[sh])
		}
		cfg.attempted.Add(1)
		if !slices.Equal(dst, vals) {
			cfg.fail(errors.New("shard.StitchOne did not restore the input order"))
		}
	}
	m.set("shard.split_ns_per_key", median(split), len(split))
	m.set("shard.stitch_ns_per_key", median(stitch), len(stitch))
	m.set("shard.imbalance", float64(slices.Max(perShard))/(float64(rounds*shardProbeKeys)/float64(shards)), rounds)
}

// rung is one layer of the ladder: a structure loaded with the base
// set, driven one key at a time.
type rung struct {
	name  string
	build func(keys []int64, vals []uint64) (caller, func())
}

// coreAPI adapts core.Tree's point surface to pointAPI.
type coreAPI struct{ t *core.Tree[int64, uint64] }

func (c coreAPI) Get(k int64) (uint64, bool) { return c.t.Get(k) }
func (c coreAPI) Put(k int64, v uint64) bool { return c.t.Put(k, v) }
func (c coreAPI) Delete(k int64) bool        { return c.t.Remove(k) }

// combinerAPI adapts a bare combine.Combiner to pointAPI, panicking on
// the error a closed combiner returns.
type combinerAPI struct {
	c *combine.Combiner[int64, uint64]
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func (c combinerAPI) Get(k int64) (uint64, bool) {
	v, ok, err := c.c.Get(k)
	must(0, err)
	return v, ok
}
func (c combinerAPI) Put(k int64, v uint64) bool { return must(c.c.Put(k, v)) }
func (c combinerAPI) Delete(k int64) bool        { return must(c.c.Delete(k)) }

// ladderRungs go from the bare core tree up to the default sharded
// frontend; adjacent rungs differ by one layer, so each difference is
// that layer's cost per operation.
var ladderRungs = []rung{
	{"core", func(ks []int64, vs []uint64) (caller, func()) {
		t := core.NewFromSortedKV(core.Config{}, parallel.NewPool(runtime.GOMAXPROCS(0)), ks, vs)
		return pointCaller(coreAPI{t}), func() {}
	}},
	{"map", func(ks []int64, vs []uint64) (caller, func()) {
		return pointCaller(pbist.NewMapFromItems(pbist.Options{}, ks, vs)), func() {}
	}},
	{"combiner", func(ks []int64, vs []uint64) (caller, func()) {
		pool := parallel.NewPool(runtime.GOMAXPROCS(0))
		t := core.NewFromSortedKV(core.Config{}, pool, ks, vs)
		t.EnablePublish()
		c := combine.New(combine.Engine[int64, uint64](t), pool, combine.Options{})
		return pointCaller(combinerAPI{c}), c.Close
	}},
	{"concurrent", func(ks []int64, vs []uint64) (caller, func()) {
		c := pbist.NewConcurrentFromItems(pbist.ConcurrentOptions{}, ks, vs)
		return pointCaller(c), c.Close
	}},
	{"sharded1", func(ks []int64, vs []uint64) (caller, func()) {
		s := pbist.NewShardedFromItems(pbist.ShardedOptions{Shards: 1}, ks, vs)
		return pointCaller(s), s.Close
	}},
	{"sharded", func(ks []int64, vs []uint64) (caller, func()) {
		s := pbist.NewShardedFromItems(pbist.ShardedOptions{}, ks, vs)
		return pointCaller(s), s.Close
	}},
}

// probeLadder runs the point script with one client, closed loop,
// through every rung; each rung gets the same script and its own
// oracle. ns/op is the median over five chunks of the chunk's mean
// call time.
func probeLadder(p params, in inputs, cfg *runCfg, seed uint64, tr *tracer, m metricSet) {
	one := p
	one.Clients = 1
	for _, rg := range ladderRungs {
		call, closeFn := rg.build(in.keys, in.vals)
		c := newClient(cfg, one, in, dist.NewRNG(seed), 0, newOracle(in, 0, 1), call, [numKinds]string{"ladder." + rg.name + ".get", "ladder." + rg.name + ".put", "ladder." + rg.name + ".delete"}, tr)
		const chunks = 5
		var per []float64
		for range chunks {
			var total time.Duration
			for range p.LadderOps / chunks {
				t0 := time.Now()
				c.invoke()
				total += time.Since(t0)
				c.settle()
			}
			per = append(per, float64(total)/float64(p.LadderOps/chunks))
		}
		closeFn()
		m.set("ladder."+rg.name+"_ns_per_op", median(per), p.LadderOps)
	}
}
