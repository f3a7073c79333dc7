package main

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// rtSample is one read of the runtime metrics the benchmark reports;
// two reads give the deltas of a phase.
type rtSample struct {
	s []metrics.Sample
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{s: s}
}

// rtDelta is what happened in the runtime between two reads.
type rtDelta struct {
	gcCycles, allocs, allocBytes float64
	gcPauseP99, schedP99         float64 // seconds
}

func runtimeDelta(a, b rtSample) rtDelta {
	u := func(i int) float64 { return float64(b.s[i].Value.Uint64() - a.s[i].Value.Uint64()) }
	return rtDelta{
		gcCycles:   u(0),
		allocs:     u(1),
		allocBytes: u(2),
		gcPauseP99: histDeltaQuantile(a.s[3].Value.Float64Histogram(), b.s[3].Value.Float64Histogram(), 0.99),
		schedP99:   histDeltaQuantile(a.s[4].Value.Float64Histogram(), b.s[4].Value.Float64Histogram(), 0.99),
	}
}

// histDeltaQuantile returns the q-quantile of the samples added to a
// runtime histogram between two reads, as the upper edge of the bucket
// holding it (the lower edge for the unbounded last bucket); 0 when
// nothing was added.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= rank {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// memSamples is how many times bytes_per_key is taken, each after a
// further fifth of the warm-up. The figure is their mean: how many
// retired versions and recycled buffers are held at one instant is
// chance, and it flips between a few states, which a mean averages
// and a median would pick from.
const memSamples = 5

// bytesPerKey reports the mean over memSamples of the live heap above
// base per stored key, running more(n) before each sample.
func bytesPerKey(base float64, warm int, more func(n int), length func() int) float64 {
	var xs []float64
	for range memSamples {
		more(max(1, warm/5))
		xs = append(xs, (liveHeap()-base)/float64(length()))
	}
	return mean(xs)
}
