package core

import (
	"sync"

	"repro/internal/arena"
	"repro/internal/iindex"
	"repro/internal/parallel"
)

// seqSegCutoff is the sub-batch size below which a batched traversal
// stops forking and switches to the allocation-free sequential path.
// Small segments gain nothing from parallelism — the fan-out above
// them already saturates the pool — while per-node buffer allocations
// on the hot path cost more than the work they support.
const seqSegCutoff = 512

// scratch holds one reusable position buffer per recursion depth for a
// sequential subtree walk. A parent's buffer stays live while its
// children run, so buffers cannot be shared across depths, but sibling
// subtrees at the same depth reuse the same storage. Whole walkers —
// level buffers attached — are pooled per tree (treeArena.seqScr), so
// consecutive sequential segments reuse both the buffers and the
// levels spine; the arena free list only backs buffer growth.
type scratch struct {
	src    *arena.Scratch[int32]
	owner  *sync.Pool // nil when buffer reuse is disabled
	levels [][]int32
}

// newScratch borrows a walker from the tree's pool (or builds a fresh
// one under DisableBufferReuse). Callers must pair it with release()
// once the walk has fully returned.
func (t *Tree[K, V]) newScratch() *scratch {
	if t.cfg.DisableBufferReuse {
		return &scratch{src: &t.ar.i32s}
	}
	if v := t.ar.seqScr.Get(); v != nil {
		return v.(*scratch)
	}
	return &scratch{src: &t.ar.i32s, owner: &t.ar.seqScr}
}

func (s *scratch) buf(depth, n int) []int32 {
	for len(s.levels) <= depth {
		s.levels = append(s.levels, nil)
	}
	if cap(s.levels[depth]) < n {
		s.src.Put(s.levels[depth])
		s.levels[depth] = s.src.Get(n) //pbist:owner — the walker retains level buffers; release() returns them
	}
	return s.levels[depth][:n]
}

// release returns the walker — buffers still attached — to its pool.
// The scratch must not be used afterwards.
func (s *scratch) release() {
	if s.owner == nil {
		for _, b := range s.levels {
			s.src.Put(b)
		}
		s.levels = nil
		return
	}
	s.owner.Put(s)
}

// findPositionsSeq is findPositions without parallel loops: it fills
// pf[i] = pos<<1 | found for keys[l:r) against v.rep.
func (t *Tree[K, V]) findPositionsSeq(v *node[K, V], keys []K, l, r int, pf []int32) {
	rep := v.rep
	if t.cfg.Traverse == TraverseRank {
		for i := l; i < r; i++ {
			ub := parallel.UpperBound(rep, keys[i])
			if ub > 0 && rep[ub-1] == keys[i] {
				pf[i-l] = int32(ub-1)<<1 | 1
			} else {
				pf[i-l] = int32(ub) << 1
			}
		}
		return
	}
	if v.isLeaf() {
		for i := l; i < r; i++ {
			pos, found := iindex.InterpolationSearch(rep, keys[i])
			pf[i-l] = pack(pos, found)
		}
		return
	}
	idx := &v.idx
	for i := l; i < r; i++ {
		pos, found := iindex.Find(rep, idx, keys[i])
		pf[i-l] = pack(pos, found)
	}
}

func pack(pos int, found bool) int32 {
	if found {
		return int32(pos)<<1 | 1
	}
	return int32(pos) << 1
}

// containsSeq resolves membership of keys[l:r) in v's subtree without
// allocating: positions live in the scratch arena and runs are found
// by a linear scan.
func (t *Tree[K, V]) containsSeq(v *node[K, V], keys []K, l, r int, result []bool, sc *scratch, depth int) {
	if v == nil {
		return
	}
	seg := r - l
	pf := sc.buf(depth, seg)
	t.findPositionsSeq(v, keys, l, r, pf)
	for i, p := range pf {
		if p&1 == 1 {
			result[l+i] = v.exists[p>>1]
		}
	}
	if v.isLeaf() {
		return
	}
	for i := 0; i < seg; {
		j := i + 1
		for j < seg && pf[j] == pf[i] {
			j++
		}
		if pf[i]&1 == 0 {
			t.containsSeq(v.children[pf[i]>>1], keys, l+i, l+j, result, sc, depth+1)
		}
		i = j
	}
}

// getSeq is getRec on the sequential path: membership plus a value
// read for every key found live.
func (t *Tree[K, V]) getSeq(v *node[K, V], keys []K, l, r int, vals []V, found []bool, sc *scratch, depth int) {
	if v == nil {
		return
	}
	seg := r - l
	pf := sc.buf(depth, seg)
	t.findPositionsSeq(v, keys, l, r, pf)
	for i, p := range pf {
		if p&1 == 1 && v.exists[p>>1] {
			found[l+i] = true
			vals[l+i] = v.vals[p>>1]
		}
	}
	if v.isLeaf() {
		return
	}
	for i := 0; i < seg; {
		j := i + 1
		for j < seg && pf[j] == pf[i] {
			j++
		}
		if pf[i]&1 == 0 {
			t.getSeq(v.children[pf[i]>>1], keys, l+i, l+j, vals, found, sc, depth+1)
		}
		i = j
	}
}

// writeSeq is writeRec on the sequential path: positions live in the
// walker's per-depth buffers, runs are found by a linear scan, and the
// node is copied lazily, at its first change.
func (t *Tree[K, V]) writeSeq(op writeOp, v *node[K, V], keys []K, vals []V, l, r int, above bool, sc *scratch, depth int) (*node[K, V], int, fired[K]) {
	if v == nil {
		return t.plant(op, keys, vals, l, r)
	}
	key0 := v.rep[0] // before any leaf merge moves it
	seg := r - l
	pf := sc.buf(depth, seg)
	t.findPositionsSeq(v, keys, l, r, pf)
	k := 0
	for i, p := range pf {
		if p&1 == 0 {
			continue
		}
		if w, m := op.hit(v.exists[p>>1]); w {
			v = t.owned(v)
			setSlot(op, v, int(p>>1), vals, l+i)
			k += b2i(m)
		}
	}
	var f fired[K]
	if v.isLeaf() {
		var merged int
		v, merged = t.mergeAbsent(op, v, keys, vals, l, r, pf)
		k += merged
	} else {
		below := above || t.rebuildDue(v, seg)
		for i := 0; i < seg; {
			j := i + 1
			for j < seg && pf[j] == pf[i] {
				j++
			}
			if pf[i]&1 == 0 {
				c := int(pf[i] >> 1)
				nc, kc, fc := t.writeSeq(op, v.children[c], keys, vals, l+i, l+j, below, sc, depth+1)
				if !below && fc.pending() {
					nc, fc = t.settle(nc, fc), fired[K]{}
				}
				if nc != v.children[c] {
					v = t.owned(v)
					v.children[c] = nc
				}
				k += kc
				f.adopt(fc, c)
			}
			i = j
		}
	}
	return t.finish(op, v, k, key0, above, f)
}

// mergeLeafPF merges the physically absent batch pairs into a leaf's
// rep/vals/exists triple: batch entries with the found bit set in pf
// were handled in place and are skipped, and absent is the number of
// pairs that will actually be written.
//
// The merge runs backward in place, so sources are consumed before
// being overwritten. When the leaf's arrays lack the capacity, they are
// first copied into fresh arrays of slack·n capacity
// (Config.LeafSlack), so the next few merges into the same leaf cost
// nothing — grew reports that reallocation, feeding the leaf-growth
// counter the leafslack experiment sweeps. Chunk-carved arrays are
// capacity-clamped and therefore always reallocate on their first
// merge, which is what keeps leaf growth out of shared chunk storage.
// The arrays are leaf-retained either way, so they never come from
// recycled scratch.
func mergeLeafPF[K iindex.Numeric, V any](rep []K, vals []V, exists []bool, batchK []K, batchV []V, pf []int32, absent int, slack float64) ([]K, []V, []bool, bool) {
	n := len(rep) + absent
	grew := cap(rep) < n || cap(vals) < n || cap(exists) < n
	if grew {
		grown := n + int(float64(n)*(slack-1)) // headroom for in-place follow-up merges
		rep = append(make([]K, 0, grown), rep...)
		vals = append(make([]V, 0, grown), vals...)
		exists = append(make([]bool, 0, grown), exists...)
	}
	i, w := len(rep)-1, n-1
	rep, vals, exists = rep[:n], vals[:n], exists[:n]
	for j := len(batchK) - 1; j >= 0; j-- {
		if pf[j]&1 == 1 {
			continue // handled in place; already present in rep
		}
		for i >= 0 && rep[i] > batchK[j] {
			rep[w], vals[w], exists[w] = rep[i], vals[i], exists[i]
			i--
			w--
		}
		rep[w], vals[w], exists[w] = batchK[j], batchV[j], true
		w--
	}
	return rep, vals, exists, grew
}
