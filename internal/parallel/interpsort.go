package parallel

import (
	"math"
	"slices"

	"repro/internal/iindex"
)

// KeyPos is one element of a batch sorted by InterpolationSort: a key
// and its index in the input slice.
type KeyPos[K iindex.Numeric] struct {
	Key K
	Pos int
}

const (
	// isortSmall is the bucket size finished by insertion sort.
	isortSmall = 16
	// isortFine is the largest range sorted by one sequential pass
	// with one bucket per key. Larger ranges take the blocked coarse
	// pass first.
	isortFine = 1024
	// isortCoarse is the target size of a coarse bucket: small
	// enough that its fine pass runs in L1.
	isortCoarse = 256
	// isortMaxBuckets caps the buckets of one coarse pass, and with
	// them the per-block count arrays.
	isortMaxBuckets = 1 << 16
	// isortStride is the sampling stride of a pass's key range.
	isortStride = 31
	// isortMaxDepth bounds the interpolation passes any key goes
	// through. A bucket still too big for insertion sort at this depth
	// is comparison-sorted, which keeps the worst case O(m log m).
	isortMaxDepth = 4
)

// InterpolationSort returns the elements of keys in ascending order,
// each paired with its index in keys; equal keys are ordered by index.
// keys is not modified.
//
// It is a bucket sort whose bucket function is the linear
// interpolation (k − lo)/(hi − lo) the interpolation search tree
// itself relies on, with [lo, hi] estimated from a strided sample of
// the keys. A range is counted, prefix-summed and scattered stably
// into buckets; each bucket then gets the same treatment over its own
// range, or insertion sort once it is small. Ranges above about a
// thousand keys take a blocked coarse pass — per-block counts and
// scatters on the pool, then the coarse buckets in parallel — so the
// span stays O(m/workers) plus one bucket's work, not O(m).
//
// On smooth keys every bucket holds O(1) keys in expectation and the
// sort costs expected O(m) work. The bucket function is monotone in
// the key, so equal keys always share a bucket and skewed input only
// costs speed, never order: float rounding of uint64 keys above 2⁵³,
// ±Inf keys, and a far outlier (which the sampled range usually
// excludes, clamping it into an end bucket) all still sort exactly.
// Depth is capped and a bucket that stays large is comparison-sorted,
// so the worst case is O(m log m). NaN keys are not ordered and must
// not occur.
func InterpolationSort[K iindex.Numeric](p *Pool, keys []K) []KeyPos[K] {
	n := len(keys)
	out := make([]KeyPos[K], n)
	fill := func(i, j int) {
		for ; i < j; i++ {
			out[i] = KeyPos[K]{keys[i], i}
		}
	}
	if n <= isortSmall {
		fill(0, n)
		insertionSortKP(out)
		return out
	}
	coarse := n > isortFine
	lo, hi := keysRange(keys, sampleStride(n))
	bp, ok, equal := planPass(n, lo, hi, func() (K, K) {
		if !coarse {
			return keysRange(keys, 1)
		}
		return blockRange(p, n, keys[0], func(i, j int, lo, hi K) (K, K) {
			for _, k := range keys[i:j] {
				lo, hi = min(lo, k), max(hi, k)
			}
			return lo, hi
		})
	})
	if !ok {
		ForRange(p, n, 0, fill)
		if !equal {
			slices.SortFunc(out, compareKP[K])
		}
		return out
	}
	// The first pass reads the keys themselves and writes the pairs.
	var s isortScratch[K]
	if !coarse {
		cnt, ids := s.counts(0, n), s.bucketIDs(n)
		for i, k := range keys {
			b := bp.bucket(float64(k))
			ids[i] = int32(b)
			cnt[b]++
		}
		largest := prefixSum(cnt)
		for i, k := range keys {
			b := ids[i]
			out[cnt[b]] = KeyPos[K]{k, i}
			cnt[b]++
		}
		finishBuckets(p, out, cnt, largest, 0, false, &s)
		return out
	}
	ends, largest := bucketPass(p, n, bp,
		func(i, j int, cnt []int) {
			for _, k := range keys[i:j] {
				cnt[bp.bucket(float64(k))]++
			}
		},
		func(i, j int, next []int) {
			for ; i < j; i++ {
				b := bp.bucket(float64(keys[i]))
				out[next[b]] = KeyPos[K]{keys[i], i}
				next[b]++
			}
		})
	finishBuckets(p, out, ends, largest, 0, true, &s)
	return out
}

// sortPairs sorts a bucket a in place by (Key, Pos) with another
// interpolation pass over its own key range. a must be in ascending
// Pos order — every caller's is: one bucket of a stable pass over the
// input — so sorting by Key alone stably yields (Key, Pos) order.
func sortPairs[K iindex.Numeric](p *Pool, a []KeyPos[K], depth int, s *isortScratch[K]) {
	n := len(a)
	coarse := n > isortFine
	lo, hi := pairsRange(a, sampleStride(n))
	bp, ok, equal := planPass(n, lo, hi, func() (K, K) {
		if !coarse {
			return pairsRange(a, 1)
		}
		return blockRange(p, n, a[0].Key, func(i, j int, lo, hi K) (K, K) {
			for _, e := range a[i:j] {
				lo, hi = min(lo, e.Key), max(hi, e.Key)
			}
			return lo, hi
		})
	})
	switch {
	case equal:
		return
	case !ok || depth == isortMaxDepth:
		// Out of depth, or a span interpolation cannot scale: the
		// comparison sort keeps the worst case O(m log m).
		slices.SortFunc(a, compareKP[K])
		return
	}
	tmp := s.pairs(n)
	if !coarse {
		// The sequential pass, free of the pool's closures: on skewed
		// keys it runs once per crowded bucket.
		cnt, ids := s.counts(depth, n), s.bucketIDs(n)
		for i, e := range a {
			b := bp.bucket(float64(e.Key))
			ids[i] = int32(b)
			cnt[b]++
		}
		largest := prefixSum(cnt)
		for i, e := range a {
			b := ids[i]
			tmp[cnt[b]] = e
			cnt[b]++
		}
		copy(a, tmp)
		finishBuckets(p, a, cnt, largest, depth, false, s)
		return
	}
	// A bucket the first pass could not split, as under a far outlier,
	// gets the blocked pass on the pool too.
	ends, largest := bucketPass(p, n, bp,
		func(i, j int, cnt []int) {
			for _, e := range a[i:j] {
				cnt[bp.bucket(float64(e.Key))]++
			}
		},
		func(i, j int, next []int) {
			for _, e := range a[i:j] {
				b := bp.bucket(float64(e.Key))
				tmp[next[b]] = e
				next[b]++
			}
		})
	ForRange(p, n, 0, func(i, j int) { copy(a[i:j], tmp[i:j]) })
	finishBuckets(p, a, ends, largest, depth, true, s)
}

// planPass sizes a pass over n keys from the range [lo, hi] of its
// strided sample. When the sample spans nothing, the exact range, which
// full computes, decides instead; equal reports that it holds a single
// key, so there is nothing to sort. ok is false when no pass can split
// the keys.
func planPass[K iindex.Numeric](n int, lo, hi K, full func() (K, K)) (bp pass, ok, equal bool) {
	if bp, ok = newPass(lo, hi, n, sampleStride(n)); ok {
		return bp, true, false
	}
	lo, hi = full()
	bp, ok = newPass(lo, hi, n, 0)
	return bp, ok, lo == hi
}

// keysRange returns the smallest and largest of every stride-th key.
func keysRange[K iindex.Numeric](keys []K, stride int) (lo, hi K) {
	lo, hi = keys[0], keys[0]
	for i := stride; i < len(keys); i += stride {
		lo, hi = min(lo, keys[i]), max(hi, keys[i])
	}
	return lo, hi
}

// pairsRange is keysRange over the keys of pairs.
func pairsRange[K iindex.Numeric](a []KeyPos[K], stride int) (lo, hi K) {
	lo, hi = a[0].Key, a[0].Key
	for i := stride; i < len(a); i += stride {
		lo, hi = min(lo, a[i].Key), max(hi, a[i].Key)
	}
	return lo, hi
}

// prefixSum turns bucket counts into bucket starts and returns the
// largest count.
func prefixSum(cnt []int) (largest int) {
	sum := 0
	for b, c := range cnt {
		cnt[b] = sum
		sum += c
		largest = max(largest, c)
	}
	return largest
}

// pass is one interpolation pass: nb = last+1 buckets over the key
// range starting at base, bucket ⌊(k − base)·scale⌋. coarse passes run
// blocked on the pool; fine ones are sequential with a bucket per key.
type pass struct {
	base, scale float64
	last        int
	coarse      bool
}

// sampleStride is the stride of the keys a pass over n samples for its
// range: every isortStride-th key, and at least eight keys. The stride
// is odd, so inputs interleaved from two or four sources are sampled
// from all of them.
func sampleStride(n int) int { return min(isortStride, n/8) | 1 }

// newPass sizes a pass over n keys. With stride > 0, [lo, hi] is the
// range of the keys sampled at that stride, and it is widened by one
// expected gap between samples on either side; keys outside it — a
// far outlier, an infinite key — clamp into the end buckets instead
// of squeezing the others into one. With stride 0 it is the exact
// range. ok is false when the range gives interpolation nothing to
// scale: it holds one value, is infinite, or the scale overflows.
func newPass[K iindex.Numeric](lo, hi K, n, stride int) (bp pass, ok bool) {
	nb := n
	if n > isortFine {
		nb = min(n/isortCoarse, isortMaxBuckets)
	}
	base, top := float64(lo), float64(hi)
	if stride > 0 {
		gap := (top - base) * float64(stride) / float64(n)
		base, top = base-gap, top+gap
	}
	span := top - base
	scale := float64(nb) / span
	ok = span > 0 && span <= math.MaxFloat64 && scale <= math.MaxFloat64
	return pass{base: base, scale: scale, last: nb - 1, coarse: n > isortFine}, ok
}

// bucket maps a key, as float64, to its bucket. Every step — the
// subtraction, the scaling, the clamps and the truncation — is
// monotone, so equal keys share a bucket and larger keys never land
// in an earlier one.
func (bp pass) bucket(k float64) int {
	f := (k - bp.base) * bp.scale
	switch {
	case f >= float64(bp.last):
		return bp.last
	case f > 0:
		return int(f)
	}
	return 0
}

// bucketPass runs one pass over n items: every block counts its items
// per bucket, the counts are prefix-summed bucket-major (so block
// order, and with it input order, is kept inside a bucket), and every
// block places its items. It returns each bucket's end offset and the
// size of the largest bucket.
func bucketPass(p *Pool, n int, bp pass, count func(i, j int, cnt []int), place func(i, j int, next []int)) (ends []int, largest int) {
	nb := bp.last + 1
	blocks := scanBlocks(p, n)
	counts := make([]int, blocks*nb)
	bs := (n + blocks - 1) / blocks
	For(p, blocks, 1, func(blk int) {
		count(min(blk*bs, n), min((blk+1)*bs, n), counts[blk*nb:(blk+1)*nb])
	})
	sum := 0
	for b := range nb {
		start := sum
		for blk := range blocks {
			i := blk*nb + b
			sum, counts[i] = sum+counts[i], sum
		}
		largest = max(largest, sum-start)
	}
	For(p, blocks, 1, func(blk int) {
		place(min(blk*bs, n), min((blk+1)*bs, n), counts[blk*nb:(blk+1)*nb])
	})
	// The last block's cursor of every bucket now sits at its end.
	return counts[(blocks-1)*nb:], largest
}

// finishBuckets sorts every bucket of a in place, bucket b ending at
// ends[b]. A coarse pass's buckets are finished in parallel, each task
// with scratch of its own.
func finishBuckets[K iindex.Numeric](p *Pool, a []KeyPos[K], ends []int, largest, depth int, coarse bool, s *isortScratch[K]) {
	if largest <= isortSmall {
		// Keys are out of order only within their buckets, so one
		// insertion sort over a costs O(n·isortSmall) and skips the
		// per-bucket loop: the smooth-key case of a fine pass.
		insertionSortKP(a)
		return
	}
	if !coarse {
		finishRange(p, a, ends, 0, len(ends), depth, s)
		return
	}
	// A task takes enough coarse buckets to amortize its fork.
	ForRange(p, len(ends), 16, func(b0, b1 int) {
		finishRange(p, a, ends, b0, b1, depth, new(isortScratch[K]))
	})
}

func finishRange[K iindex.Numeric](p *Pool, a []KeyPos[K], ends []int, b0, b1, depth int, s *isortScratch[K]) {
	lo := 0
	if b0 > 0 {
		lo = ends[b0-1]
	}
	for _, hi := range ends[b0:b1] {
		switch {
		case hi-lo <= 1:
		case hi-lo <= isortSmall:
			insertionSortKP(a[lo:hi])
		default:
			sortPairs(p, a[lo:hi], depth+1, s)
		}
		lo = hi
	}
}

// isortScratch is the reusable scratch of one goroutine's sequential
// passes: the pairs buffer a pass scatters into before copying back,
// and one count array per depth, since a pass's bucket ends stay in
// use while its buckets take deeper passes.
type isortScratch[K iindex.Numeric] struct {
	tmp []KeyPos[K]
	ids []int32
	cnt [isortMaxDepth][]int
}

func (s *isortScratch[K]) bucketIDs(n int) []int32 {
	if cap(s.ids) < n {
		s.ids = make([]int32, n)
	}
	return s.ids[:n]
}

func (s *isortScratch[K]) pairs(n int) []KeyPos[K] {
	if cap(s.tmp) < n {
		s.tmp = make([]KeyPos[K], n)
	}
	return s.tmp[:n]
}

func (s *isortScratch[K]) counts(depth, nb int) []int {
	c := s.cnt[depth]
	if cap(c) < nb {
		c = make([]int, nb)
		s.cnt[depth] = c
	}
	c = c[:nb]
	clear(c)
	return c
}

// blockRange reduces the key ranges block(i, j, first, first) returns
// for the blocks [i, j) of [0, n), in parallel on the pool. first is
// any key of the whole range, so it never widens a block's range.
func blockRange[K iindex.Numeric](p *Pool, n int, first K, block func(i, j int, lo, hi K) (K, K)) (lo, hi K) {
	blocks := scanBlocks(p, n)
	bs := (n + blocks - 1) / blocks
	los, his := make([]K, blocks), make([]K, blocks)
	For(p, blocks, 1, func(blk int) {
		los[blk], his[blk] = block(min(blk*bs, n), min((blk+1)*bs, n), first, first)
	})
	return slices.Min(los), slices.Max(his)
}

// insertionSortKP stably sorts a by Key.
func insertionSortKP[K iindex.Numeric](a []KeyPos[K]) {
	for i := 1; i < len(a); i++ {
		e := a[i]
		j := i
		for j > 0 && e.Key < a[j-1].Key {
			a[j] = a[j-1]
			j--
		}
		a[j] = e
	}
}

// compareKP orders pairs by Key, then Pos.
func compareKP[K iindex.Numeric](x, y KeyPos[K]) int {
	switch {
	case x.Key < y.Key:
		return -1
	case y.Key < x.Key:
		return 1
	}
	return x.Pos - y.Pos
}
