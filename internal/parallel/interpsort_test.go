package parallel_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/iindex"
	"repro/internal/parallel"
)

// The sort's pass structure changes at 16 keys (insertion sort), at
// 1024 (sequential versus blocked pass) and with the pool's block
// count, so the sizes and pools below straddle each.
var (
	isortSizes = []int{0, 1, 2, 16, 17, 1024, 1025, 5000, 60000}
	isortPools = map[string]*parallel.Pool{
		"nil": nil, "w1": parallel.NewPool(1), "w2": parallel.NewPool(2),
		"w4": parallel.NewPool(4), "w16": parallel.NewPool(16),
	}
)

// stableOracle sorts keys by a stable comparison sort of their
// positions: the reference InterpolationSort must reproduce exactly.
func stableOracle[K iindex.Numeric](keys []K) []parallel.KeyPos[K] {
	out := make([]parallel.KeyPos[K], len(keys))
	for i, k := range keys {
		out[i] = parallel.KeyPos[K]{k, i}
	}
	slices.SortStableFunc(out, func(x, y parallel.KeyPos[K]) int {
		switch {
		case x.Key < y.Key:
			return -1
		case y.Key < x.Key:
			return 1
		}
		return 0
	})
	return out
}

func checkInterpolationSort[K iindex.Numeric](t *testing.T, name string, keys []K) {
	t.Helper()
	orig := slices.Clone(keys)
	want := stableOracle(keys)
	for pname, p := range isortPools {
		got := parallel.InterpolationSort(p, keys)
		if !slices.Equal(keys, orig) {
			t.Fatalf("%s/%s: input modified", name, pname)
		}
		if len(got) != len(want) {
			t.Fatalf("%s/%s: %d pairs, want %d", name, pname, len(got), len(want))
		}
		for i := range want {
			// Compare keys with == so −0 and +0 match, as the order does.
			if got[i].Pos != want[i].Pos || got[i].Key != want[i].Key {
				t.Fatalf("%s/%s: pair %d = %v, want %v", name, pname, i, got[i], want[i])
			}
		}
	}
}

func shuffled[K any](r *rand.Rand, a []K) []K {
	a = slices.Clone(a)
	r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	return a
}

func TestInterpolationSortDistributions(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range isortSizes {
		lo, hi := int64(-1)<<40, int64(1)<<40
		for _, name := range dist.Names() {
			if name == "halfdense" {
				continue
			}
			keys, err := dist.Generate(name, dist.NewRNG(uint64(n)+1), n, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			checkInterpolationSort(t, name, shuffled(r, keys))
		}
		dup := make([]int64, n)
		for i := range dup {
			dup[i] = r.Int63n(int64(n/8 + 1))
		}
		checkInterpolationSort(t, "duplicated", dup)
		equal := make([]int64, n)
		checkInterpolationSort(t, "all-equal", equal)
		if n > 0 {
			outlier := make([]int64, n)
			for i := range outlier {
				outlier[i] = r.Int63n(1 << 20)
			}
			outlier[r.Intn(n)] = math.MaxInt64
			checkInterpolationSort(t, "outlier", outlier)
		}
		asc := make([]int64, n)
		for i := range asc {
			asc[i] = int64(i)
		}
		checkInterpolationSort(t, "ascending", asc)
		slices.Reverse(asc)
		checkInterpolationSort(t, "descending", asc)
		// Two sources far apart, interleaved key by key: a sample at an
		// even stride would see only one of them.
		interleaved := make([]int64, n)
		for i := range interleaved {
			interleaved[i] = int64(i%2)<<40 + r.Int63n(1<<20)
		}
		checkInterpolationSort(t, "interleaved", interleaved)
	}
}

func TestInterpolationSortKeyTypes(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{3, 200, 3000} {
		i8 := make([]int8, n)
		for i := range i8 {
			i8[i] = int8(r.Intn(256) - 128)
		}
		checkInterpolationSort(t, "int8", i8)

		// Above 2⁵³ distinct uint64 keys round to the same float64:
		// they share buckets and must still come out ordered.
		u := make([]uint64, n)
		for i := range u {
			switch i % 3 {
			case 0:
				u[i] = math.MaxUint64 - uint64(r.Intn(64))
			case 1:
				u[i] = 1<<53 + uint64(r.Intn(64))
			default:
				u[i] = uint64(r.Intn(64))
			}
		}
		checkInterpolationSort(t, "uint64-high", u)
		near := make([]uint64, n)
		for i := range near {
			near[i] = math.MaxUint64 - uint64(r.Intn(n))
		}
		checkInterpolationSort(t, "uint64-near-max", near)

		f := make([]float64, n)
		specials := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
		for i := range f {
			if i%4 == 0 {
				f[i] = specials[r.Intn(len(specials))]
			} else {
				f[i] = r.NormFloat64()
			}
		}
		checkInterpolationSort(t, "float64-specials", f)
		finite := make([]float64, n)
		for i := range finite {
			// Span −MaxFloat64..MaxFloat64 overflows to +Inf.
			finite[i] = float64(r.Intn(3)-1) * math.MaxFloat64 * r.Float64()
		}
		checkInterpolationSort(t, "float64-huge-span", finite)
		tiny := make([]float64, n)
		for i := range tiny {
			tiny[i] = float64(r.Intn(4)) * math.SmallestNonzeroFloat64
		}
		checkInterpolationSort(t, "float64-denormal-span", tiny)
		zeros := make([]float32, n)
		for i := range zeros {
			if r.Intn(2) == 0 {
				zeros[i] = float32(math.Copysign(0, -1))
			}
		}
		checkInterpolationSort(t, "float32-signed-zeros", zeros)
	}
}

// TestInterpolationSortDeepSkew drives buckets to the depth cap: keys
// at doubling distances put almost everything in the first bucket of
// every interpolation pass.
func TestInterpolationSortDeepSkew(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	keys := make([]uint64, 20000)
	for i := range keys {
		keys[i] = 1<<uint(r.Intn(64)) + uint64(r.Intn(4))
	}
	checkInterpolationSort(t, "pow2", keys)
}
