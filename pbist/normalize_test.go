package pbist

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// stableNormalize is the pair normalization by comparison sort: a
// stable sort of the input positions by key, keeping the last
// position of every run of equal keys. It is the oracle the
// interpolation-sorted normalization is checked against.
func stableNormalize[K Key, V any](keys []K, vals []V) ([]K, []V) {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case keys[a] < keys[b]:
			return -1
		case keys[b] < keys[a]:
			return 1
		default:
			return 0
		}
	})
	var outK []K
	var outV []V
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && keys[idx[j]] == keys[idx[i]] {
			j++
		}
		last := idx[j-1]
		outK = append(outK, keys[last])
		outV = append(outV, vals[last])
		i = j
	}
	return outK, outV
}

// equalKeys compares with ==, under which −0 and +0 are one key.
func equalKeys[K Key](a, b []K) bool {
	return slices.EqualFunc(a, b, func(x, y K) bool { return x == y })
}

// checkNormalize runs one batch through every normalizing entry point
// of a Map and a Tree with the given worker count and checks each
// against stableNormalize and a builtin map filled in input order.
func checkNormalize[K Key](t *testing.T, name string, keys []K, workers int) {
	t.Helper()
	vals := make([]int, len(keys))
	for i := range vals {
		vals[i] = i
	}
	wantK, wantV := stableNormalize(keys, vals)
	ref := map[K]int{}
	for i, k := range keys {
		ref[k] = i // last occurrence wins
	}
	orig := slices.Clone(keys)

	m := NewMap[K, int](Options{Workers: workers})
	if gotK, gotV := m.normalizePairs(keys, vals); !equalKeys(gotK, wantK) || !slices.Equal(gotV, wantV) {
		t.Fatalf("%s/w%d: normalizePairs = %v %v, want %v %v", name, workers, gotK, gotV, wantK, wantV)
	}
	if got := m.normalize(keys); !equalKeys(got, wantK) {
		t.Fatalf("%s/w%d: normalize = %v, want %v", name, workers, got, wantK)
	}
	if got := m.PutBatch(keys, vals); got != len(wantK) {
		t.Fatalf("%s/w%d: PutBatch = %d, want %d", name, workers, got, len(wantK))
	}
	if gotK, gotV := m.Items(); !equalKeys(gotK, wantK) || !slices.Equal(gotV, wantV) {
		t.Fatalf("%s/w%d: after PutBatch Items = %v %v, want %v %v", name, workers, gotK, gotV, wantK, wantV)
	}

	// Query the batch twice over, reversed, so duplicated keys occur at
	// many positions and each position must get its own answer; again
	// after deleting every other distinct key (passed with duplicates
	// and out of order), so absent keys are asked too.
	queries := slices.Concat(keys, orig)
	slices.Reverse(queries)
	query := func(stage string) {
		t.Helper()
		gotV, found := m.GetBatch(queries)
		hits := m.ContainsBatch(queries)
		for i, q := range queries {
			want, ok := ref[q]
			if found[i] != ok || gotV[i] != want || hits[i] != ok {
				t.Fatalf("%s/w%d %s: query %d (%v): GetBatch = %d,%v ContainsBatch = %v, want %d,%v",
					name, workers, stage, i, q, gotV[i], found[i], hits[i], want, ok)
			}
		}
	}
	query("after PutBatch")
	var del []K
	for i, k := range wantK {
		if i%2 == 0 {
			del = append(del, k, k)
			delete(ref, k)
		}
	}
	slices.Reverse(del)
	if got, want := m.DeleteBatch(del), (len(wantK)+1)/2; got != want {
		t.Fatalf("%s/w%d: DeleteBatch = %d, want %d", name, workers, got, want)
	}
	query("after DeleteBatch")

	// Insert the whole batch into a set holding the survivors.
	survivors, _ := m.Items()
	tr := NewFromKeys(Options{Workers: workers}, survivors)
	if got, want := tr.InsertBatch(keys), len(wantK)-len(survivors); got != want {
		t.Fatalf("%s/w%d: InsertBatch = %d, want %d", name, workers, got, want)
	}
	if got := tr.Keys(); !equalKeys(got, wantK) {
		t.Fatalf("%s/w%d: after InsertBatch Keys = %v, want %v", name, workers, got, wantK)
	}
	if !equalKeys(keys, orig) {
		t.Fatalf("%s/w%d: input batch modified", name, workers)
	}
}

func checkNormalizeAll[K Key](t *testing.T, name string, keys []K) {
	t.Helper()
	for _, w := range []int{1, 4} {
		checkNormalize(t, name, keys, w)
	}
}

// TestNormalizeEdgeCases covers the key shapes where interpolation
// could misplace keys: extreme or unrepresentable spans, float
// specials, degenerate and heavily duplicated batches. Sizes run from
// a single key past the sort's sequential cutoff to batches the pool
// splits into several blocks.
func TestNormalizeEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 40, 3000, 10000} {
		i8 := make([]int8, n)
		for i := range i8 {
			i8[i] = int8(r.Intn(256) - 128)
		}
		if n > 1 {
			i8[0], i8[1] = math.MinInt8, math.MaxInt8
		}
		checkNormalizeAll(t, "int8-full-range", i8)

		u := make([]uint64, n)
		for i := range u {
			switch r.Intn(3) {
			case 0:
				u[i] = math.MaxUint64 - uint64(r.Intn(n))
			case 1:
				u[i] = 1<<53 + uint64(r.Intn(n))
			default:
				u[i] = uint64(r.Intn(n))
			}
		}
		checkNormalizeAll(t, "uint64-high", u)

		f := make([]float64, n)
		specials := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
		for i := range f {
			if r.Intn(3) == 0 {
				f[i] = specials[r.Intn(len(specials))]
			} else {
				f[i] = float64(r.Intn(n)) - float64(n)/2
			}
		}
		checkNormalizeAll(t, "float64-inf-signed-zero", f)

		checkNormalizeAll(t, "all-equal", slices.Repeat([]int64{42}, n))

		outlier := make([]int64, n)
		for i := range outlier {
			outlier[i] = r.Int63n(int64(4 * n))
		}
		outlier[r.Intn(n)] = math.MaxInt64
		checkNormalizeAll(t, "far-outlier", outlier)

		dup := make([]int32, n)
		for i := range dup {
			dup[i] = int32(r.Intn(n/20+1)) * 1000
		}
		checkNormalizeAll(t, "heavy-duplication", dup)
	}
}

// FuzzNormalize checks the normalizing entry points against the
// comparison-sort oracle on batches decoded from fuzz bytes: data gives
// the key pattern, repeat tiles it into longer batches (so both the
// sequential and the blocked sort passes run), shift spreads the keys
// across the int64 range, and the same bytes also drive uint64 keys
// near the top of their range and float64 keys with specials.
func FuzzNormalize(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 1}, uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0, 0}, uint8(40), uint8(30))
	f.Add([]byte{255, 0, 128, 127, 1, 254}, uint8(56), uint8(7))
	f.Add([]byte{9, 200, 9, 200, 17, 17, 17}, uint8(12), uint8(63))
	f.Add([]byte{1}, uint8(63), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, shift, repeat uint8) {
		if len(data) == 0 {
			return
		}
		n := len(data) * (1 + int(repeat)%64)
		ints := make([]int64, n)
		uints := make([]uint64, n)
		floats := make([]float64, n)
		specials := []float64{math.Inf(-1), math.Copysign(0, -1), 0, math.Inf(1)}
		for i := range ints {
			b, tile := data[i%len(data)], i/len(data)
			ints[i] = int64(int8(b))<<(shift%57) + int64(tile)
			uints[i] = math.MaxUint64 - uint64(b)<<(shift%57) - uint64(tile)
			if b < 16 {
				floats[i] = specials[b%4]
			} else {
				floats[i] = float64(int8(b)) * math.Ldexp(1, int(shift)%64-32)
			}
		}
		workers := 1 + int(shift)%3
		checkNormalize(t, "int64", ints, workers)
		checkNormalize(t, "uint64", uints, workers)
		checkNormalize(t, "float64", floats, workers)
	})
}
