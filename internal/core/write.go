package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/iindex"
	"repro/internal/parallel"
)

// InsertBatched adds every key of the sorted duplicate-free batch with
// a zero value and returns the number of keys actually inserted (keys
// already live are skipped, keeping their stored value). It implements
// §5 as one traversal: each key descends to the node whose Rep holds
// it — reviving it there if it was logically removed (§6, Fig. 13) —
// or to the leaf it merges into (Fig. 11). The paper's Contains pass
// is folded into that descent; see write for why the §7.1 rebuilds
// stay exactly those of the filter-first order.
//
// InsertBatched(B) is set union: A.InsertBatched(B) makes A = A ∪ B
// (§2.2).
func (t *Tree[K, V]) InsertBatched(keys []K) int {
	zero := t.ar.vals.GetZero(len(keys))
	n := t.write(opInsert, keys, zero)
	t.ar.vals.Put(zero)
	return n
}

// PutBatched upserts every (keys[i], vals[i]) pair of the sorted
// duplicate-free batch and returns the number of keys that were newly
// inserted (as opposed to overwritten). It is InsertBatched's
// traversal with the values riding along: a live key has its value
// overwritten in place (not a structural modification, so no rebuild
// accounting), a dead one is revived with the new value, an absent
// one merges into its leaf.
func (t *Tree[K, V]) PutBatched(keys []K, vals []V) int {
	if len(keys) != len(vals) {
		panic("core: PutBatched keys/vals length mismatch")
	}
	return t.write(opPut, keys, vals)
}

// RemoveBatched deletes every key of the sorted duplicate-free batch
// and returns the number of keys actually removed. It implements §6 as
// one traversal: a key found live in some node's Rep is marked
// logically removed in its Exists array (Fig. 12); dead and absent keys
// are no-ops. Space — including the value slots — is reclaimed by the
// next rebuild of an enclosing subtree (§7).
//
// RemoveBatched(B) is set difference: A.RemoveBatched(B) makes
// A = A \ B (§2.2).
func (t *Tree[K, V]) RemoveBatched(keys []K) int {
	return t.write(opRemove, keys, nil)
}

// writeOp selects what a batched write traversal does with each key.
type writeOp uint8

const (
	opPut    writeOp = iota // overwrite live, revive dead, merge absent
	opInsert                // revive dead, merge absent; live stays
	opRemove                // kill live; dead and absent are no-ops
)

// hit reports what op does to a rep slot holding a batch key: whether
// the slot changes at all, and whether the change is structural — one
// of the modifications §7.1 counts: a revive, or a kill for remove (a
// put's value overwrite is not).
func (op writeOp) hit(live bool) (write, mod bool) {
	mod = live == (op == opRemove)
	return mod || op == opPut, mod
}

// setSlot applies op to rep slot s of v for batch key j; called only
// where hit reported a write.
func setSlot[K iindex.Numeric, V any](op writeOp, v *node[K, V], s int, vals []V, j int) {
	v.exists[s] = op != opRemove
	if op != opRemove {
		v.vals[s] = vals[j]
	}
}

// fired is the unsettled §7.1 state of a subtree after a write
// traversal: whether its root's trigger fired (due), and the states of
// its children that hold fired nodes. The zero value means nothing in
// the subtree fired.
type fired[K iindex.Numeric] struct {
	due  bool
	key  K   // debt-record key: the root's rep[0] as the batch found it
	slot int // child index in the parent
	kids []fired[K]
}

func (f *fired[K]) pending() bool { return f.due || len(f.kids) > 0 }

// write runs one batched write as a single traversal: every key acts
// where it lands, and each subtree returns the number k of structural
// modifications below it, so the §7.1 accounting — size ± k,
// modCnt += k, and rebuildDue(v, k) against the exact k — runs as the
// children return, with no membership pre-pass to learn k up front.
//
// A node whose trigger fires reports upward (fired) and is settled by
// the nearest frame that knows neither itself nor any ancestor can
// fire; a node receiving s keys can fire only if rebuildDue(v, s), and
// the recursion passes that bound down as above. So the node rebuilt
// is the topmost fired one on each path, exactly as in the paper's
// Contains-first order, which stops there and rebuilds it from its
// contents plus the batch: the same key set, hence the same ideal
// layout. Settlement runs top-down along each path and in sibling
// order on the sequential path, so budget reservations come in the
// same pre-order too; a fired node that cannot reserve becomes debt
// and its fired children are settled in turn.
func (t *Tree[K, V]) write(op writeOp, keys []K, vals []V) int {
	if len(keys) == 0 {
		return 0
	}
	t.beginBatch()
	root, k, f := t.writeRec(op, t.root, keys, vals, 0, len(keys), false)
	if f.pending() {
		root = t.settle(root, f)
	}
	t.root = root
	if k > 0 || op == opPut {
		t.dirty = true
	}
	return k
}

// runOut is one child's result in the parallel write recursion.
type runOut[K iindex.Numeric, V any] struct {
	ran  bool
	root *node[K, V]
	k    int
	f    fired[K]
}

// writeRec applies op to keys[l:r) within subtree v and returns the
// new subtree root, the number of structural modifications below it,
// and its unsettled triggers; above reports whether an ancestor may
// fire. Nodes are copied (owned) only when something in them changes —
// a slot, a child pointer, or the counters — so no-op keys leave a
// publishing tree's published nodes untouched. Position buffers are
// arena scratch held until the node's whole fan-out returns.
func (t *Tree[K, V]) writeRec(op writeOp, v *node[K, V], keys []K, vals []V, l, r int, above bool) (*node[K, V], int, fired[K]) {
	if v == nil {
		return t.plant(op, keys, vals, l, r)
	}
	seg := r - l
	if seg <= seqSegCutoff || t.pool.Workers() == 1 {
		sc := t.newScratch()
		root, k, f := t.writeSeq(op, v, keys, vals, l, r, above, sc, 0)
		sc.release()
		return root, k, f
	}
	key0 := v.rep[0] // before any leaf merge moves it
	pf := t.ar.i32s.Get(seg)
	defer t.ar.i32s.Put(pf)
	t.findPositions(v, keys, l, r, pf)
	v, k := t.applyHits(op, v, vals, l, pf)
	var f fired[K]
	if v.isLeaf() {
		var merged int
		v, merged = t.mergeAbsent(op, v, keys, vals, l, r, pf)
		k += merged
	} else {
		runs := make([]runOut[K, V], len(v.children))
		below, kids := above || t.rebuildDue(v, seg), v.children
		t.forEachChildRun(pf, func(lo, hi, c int) {
			o := &runs[c]
			o.ran = true
			o.root, o.k, o.f = t.writeRec(op, kids[c], keys, vals, l+lo, l+hi, below)
			if !below && o.f.pending() {
				o.root, o.f = t.settle(o.root, o.f), fired[K]{}
			}
		})
		for c, o := range runs {
			if o.ran && o.root != v.children[c] {
				v = t.owned(v)
				v.children[c] = o.root
			}
			k += o.k
			f.adopt(o.f, c)
		}
	}
	return t.finish(op, v, k, key0, above, f)
}

// adopt records a child's unsettled triggers under slot.
func (f *fired[K]) adopt(c fired[K], slot int) {
	if c.pending() {
		c.slot = slot
		f.kids = append(f.kids, c)
	}
}

// finish returns a write frame's results once v's children have
// returned: with k > 0 structural modifications below it, v is copied
// if need be and runs the §7.1 bookkeeping, the trigger checked
// against the modCnt from before the batch. With no ancestor able to
// fire and v not due, nothing can subsume v's fired children any more,
// so they settle here.
func (t *Tree[K, V]) finish(op writeOp, v *node[K, V], k int, key0 K, above bool, f fired[K]) (*node[K, V], int, fired[K]) {
	if k == 0 {
		return v, 0, f
	}
	v = t.owned(v)
	f.due, f.key = t.rebuildDue(v, k), key0
	v.modCnt += k
	if op == opRemove {
		v.size -= k
	} else {
		v.size += k
	}
	if !above && !f.due && len(f.kids) > 0 {
		t.settleKids(v, f.kids)
		f.kids = nil
	}
	return v, k, f
}

// applyHits is the sequential path's slot loop as one parallel pass:
// it applies op to every batch key found in v's Rep, copying v at the
// first slot that changes — under a Once, so the copy completes before
// any write lands; each slot belongs to one key, so no two blocks touch
// the same one — and returns the node with the structural
// modifications made, summed from per-block counts.
func (t *Tree[K, V]) applyHits(op writeOp, v *node[K, V], vals []V, l int, pf []int32) (*node[K, V], int) {
	var once sync.Once
	var mods atomic.Int64
	w := v
	own := func() { w = t.owned(v) }
	parallel.ForRange(t.pool, len(pf), 0, func(lo, hi int) {
		m := 0
		for i, p := range pf[lo:hi] {
			if p&1 == 0 {
				continue
			}
			if wr, md := op.hit(v.exists[p>>1]); wr {
				once.Do(own)
				setSlot(op, w, int(p>>1), vals, l+lo+i)
				m += b2i(md)
			}
		}
		mods.Add(int64(m))
	})
	return w, int(mods.Load())
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// mergeAbsent merges the absent batch keys of a put or insert — the pf
// entries without the found bit — into leaf v (Fig. 11), copying it
// first, and returns the leaf and the number merged.
func (t *Tree[K, V]) mergeAbsent(op writeOp, v *node[K, V], keys []K, vals []V, l, r int, pf []int32) (*node[K, V], int) {
	if op == opRemove {
		return v, 0
	}
	absent := 0
	for _, p := range pf {
		absent += b2i(p&1 == 0)
	}
	if absent == 0 {
		return v, 0
	}
	v = t.owned(v)
	var grew bool
	v.rep, v.vals, v.exists, grew = mergeLeafPF(v.rep, v.vals, v.exists, keys[l:r], vals[l:r], pf, absent, t.cfg.LeafSlack)
	if grew {
		t.ar.leafGrows.Add(1)
	}
	return v, absent
}

// plant handles a sub-batch routed to an empty child slot: every key
// there is absent, so a put or insert builds them into a fresh ideal
// subtree (r−l modifications) and a remove finds nothing.
func (t *Tree[K, V]) plant(op writeOp, keys []K, vals []V, l, r int) (*node[K, V], int, fired[K]) {
	if op == opRemove {
		return nil, 0, fired[K]{}
	}
	return t.buildIdeal(keys[l:r], vals[l:r]), r - l, fired[K]{}
}

// settle resolves the fired subtree v top-down and returns its new
// root: a due node is rebuilt if the epoch's budget affords it —
// subsuming everything fired below — and otherwise recorded as debt,
// after which its fired children are settled the same way.
func (t *Tree[K, V]) settle(v *node[K, V], f fired[K]) *node[K, V] {
	if f.due {
		if t.tryReserveRebuild(v.size) {
			return t.rebuild(v)
		}
		t.deferRebuild(f.key, v.modCnt, v.size)
	}
	t.settleKids(v, f.kids)
	return v
}

// settleKids settles the fired children of v in parallel. Every node on
// a fired path was modified, hence owned, so its child slots are
// writable.
func (t *Tree[K, V]) settleKids(v *node[K, V], kids []fired[K]) {
	parallel.For(t.pool, len(kids), 1, func(i int) {
		c := kids[i].slot
		v.children[c] = t.settle(v.children[c], kids[i])
	})
}

// rebuild is §7.1 step 2: flatten subtree v — already carrying every
// modification of the batch that triggered it — and build it ideally.
// The flatten buffers are arena scratch returned the moment
// buildIdeal has copied the pairs into chunk storage; the old
// subtree's chunks retire through the grace ring.
func (t *Tree[K, V]) rebuild(v *node[K, V]) *node[K, V] {
	t0 := obsNow(t.obs)
	flatK, flatV := t.flattenScratch(v)
	root := t.labeledBuild(flatK, flatV)
	t.ar.putKV(flatK, flatV)
	t.recordRebuild(t0, len(flatK))
	t.retireSubtree(v)
	return root
}
