package pbist

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dist"
)

// normalizeInputs returns the shuffled batches BenchmarkNormalize
// sorts: the smooth keys interpolation assumes, and three shapes that
// defeat it — keys packed into a few narrow clusters, one key repeated
// m times, and uniform keys plus one far outlier that squeezes the rest
// into a sliver of the span.
func normalizeInputs(m int) map[string][]int64 {
	r := rand.New(rand.NewSource(int64(m)))
	shuffle := func(a []int64) []int64 {
		r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		return a
	}
	rng := dist.NewRNG(uint64(m))
	outlier := dist.UniformSet(rng, m, 0, 4*int64(m))
	outlier[len(outlier)-1] = math.MaxInt64
	return map[string][]int64{
		"uniform":   shuffle(dist.UniformSet(rng, m, 0, 4*int64(m))),
		"clustered": shuffle(dist.Clustered(rng, m, 8, 0, 1<<40)),
		"allequal":  make([]int64, m),
		"outlier":   shuffle(outlier),
	}
}

// BenchmarkNormalize times the normalization of one unsorted batch on
// each path that takes it: put is PutBatch's last-wins pair
// normalization, delete the key normalization behind
// DeleteBatch/RemoveBatch/InsertBatch, and get a GetBatch against an
// empty map, whose core traversal is trivial, so it times the sort and
// the positional answer scatter. The gated benchmark workloads only
// send uniform keys; this is where skewed batches are measured.
func BenchmarkNormalize(b *testing.B) {
	for _, m := range []int{250_000, 512} {
		inputs := normalizeInputs(m)
		vals := make([]uint64, m)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			mp := NewMap[int64, uint64](Options{Workers: workers})
			for _, name := range []string{"uniform", "clustered", "allequal", "outlier"} {
				keys := inputs[name]
				for _, op := range []string{"put", "get", "delete"} {
					b.Run(fmt.Sprintf("op=%s/dist=%s/m=%d/w=%d", op, name, m, workers), func(b *testing.B) {
						for b.Loop() {
							switch op {
							case "put":
								mp.normalizePairs(keys, vals)
							case "get":
								mp.GetBatch(keys)
							case "delete":
								mp.normalize(keys)
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m), "ns/key")
					})
				}
			}
		}
	}
}
