package parallel

// Key-value variant of the §2.4 Difference primitive: the identical
// algorithm, but each key carries a position-aligned value along. The
// tree's set algebra uses it to keep values attached to keys through
// flatten-subtract-rebuild without zipping pairs into a temporary
// struct slice.

// DifferenceKV returns the (key, value) pairs of the sorted sequence
// ak/av whose key does not occur in sorted b, preserving order. Inputs
// must be duplicate-free. Same blocked two-pass algorithm as
// Difference: per-block survivor counts, a scan into offsets, then a
// parallel scatter.
func DifferenceKV[K Ordered, V any](p *Pool, ak []K, av []V, b []K) ([]K, []V) {
	return DifferenceKVInto(p, ak, av, b, nil, nil)
}

// DifferenceKVInto is DifferenceKV writing into dstK/dstV under the
// same capacity-reuse contract as the other *Into variants (worst-case output size
// is len(ak)). Its own body is allocation-free: with sufficient dst
// capacity, only diffKVPar's blocked bookkeeping allocates, and that
// path is taken only when the pool decides the batch is worth forking.
//
//pbist:noalloc
func DifferenceKVInto[K Ordered, V any](p *Pool, ak []K, av []V, b []K, dstK []K, dstV []V) ([]K, []V) {
	if len(ak) != len(av) {
		panic("parallel: DifferenceKV keys/vals length mismatch")
	}
	n := len(ak)
	if n == 0 {
		return nil, nil
	}
	if len(b) == 0 {
		outK := sized(dstK, n)
		outV := sized(dstV, n)
		copy(outK, ak)
		copy(outV, av)
		return outK, outV
	}
	blocks := scanBlocks(p, n)
	if blocks == 1 {
		// Sequential shape: count once, write once, allocate nothing
		// beyond the (usually recycled) destinations.
		total := diffKVBlock[K, V](ak, nil, b, nil, nil)
		outK := sized(dstK, total)
		outV := sized(dstV, total)
		diffKVBlock(ak, av, b, outK, outV)
		return outK, outV
	}
	return diffKVPar(p, ak, av, b, dstK, dstV, blocks)
}

// diffKVPar is the blocked tail of DifferenceKVInto, split out so the
// dispatching wrapper stays //pbist:noalloc: the per-block bookkeeping
// below allocates, and it only runs when the pool has already decided
// the batch is large enough to fork.
func diffKVPar[K Ordered, V any](p *Pool, ak []K, av []V, b []K, dstK []K, dstV []V, blocks int) ([]K, []V) {
	n := len(ak)
	bs := (n + blocks - 1) / blocks

	// Pass 1: per-block survivor counts. Each block walks the range of
	// b that can overlap its keys, located by one binary search.
	counts := make([]int, blocks)
	For(p, blocks, 1, func(blk int) {
		lo, hi := min(blk*bs, n), min((blk+1)*bs, n)
		counts[blk] = diffKVBlock[K, V](ak[lo:hi], nil, b, nil, nil)
	})
	total := ScanInPlace(nil, counts)
	outK := sized(dstK, total)
	outV := sized(dstV, total)
	// Pass 2: scatter survivors at the scanned offsets.
	For(p, blocks, 1, func(blk int) {
		lo, hi := min(blk*bs, n), min((blk+1)*bs, n)
		diffKVBlock(ak[lo:hi], av[lo:hi], b, outK[counts[blk]:], outV[counts[blk]:])
	})
	return outK, outV
}

// diffKVBlock walks one block of a against the aligned range of b.
// With dstK == nil it only counts survivors (av may be nil too);
// otherwise it writes surviving pairs and assumes the destinations are
// large enough.
//
//pbist:noalloc
func diffKVBlock[K Ordered, V any](ak []K, av []V, b []K, dstK []K, dstV []V) int {
	if len(ak) == 0 {
		return 0
	}
	j := LowerBound(b, ak[0])
	w := 0
	for i, x := range ak {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		if dstK != nil {
			dstK[w] = x
			dstV[w] = av[i]
		}
		w++
	}
	return w
}
