package core

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/iindex"
	"repro/internal/obs"
)

// This file implements the amortized rebuild scheduler: the machinery
// that decouples "subtree is over its modification budget" (§7.1) from
// "rebuild it now". Every tree runs one. Each mutating epoch (or
// standalone batch) may lay down at most Config.RebuildBudgetPerEpoch
// rebuild keys; unset (the default), the budget is math.MaxInt, every
// reservation succeeds, and every trigger rebuilds inline — the
// paper's eager policy, which is simply the unlimited-budget case of
// the one path below. With a budget set, triggers that would exceed it
// record the subtree as rebuild debt instead and the mutation
// proceeds, letting modCnt run past C·initSize. Debt is repaid
// synchronously at later epoch boundaries from the debt-priority heap,
// highest debt first, as far as each epoch's budget reaches. A subtree
// larger than the whole budget therefore never fits and is never
// rebuilt; that is the cost of setting a budget, and the remedy is a
// larger budget (or none).
//
// Concurrency: the heap, the byKey index, and the spent counter are
// guarded by mu because fired triggers settle in parallel across
// sibling subtrees (write.go).
// Everything else — epoch bracketing and drains — runs on the
// goroutine that owns the tree (the combiner, in the published setup),
// like every other mutating method.

// debtRec locates one indebted subtree: key is the first rep key the
// subtree root held when the debt was recorded (stable across COW
// copies, which share or copy the rep array verbatim, and across leaf
// merges, which only add keys), debt is its priority — the modCnt the
// subtree had reached when last deferred. Records are resolved lazily
// by walking the live tree (findIndebted); a record whose walk finds no
// over-budget node is stale (an enclosing rebuild already repaid it)
// and is dropped.
type debtRec[K iindex.Numeric] struct {
	key  K
	debt int
}

// schedCounters is the scheduler's observable state, split from the
// generic scheduler so obs.go can register it without type parameters.
type schedCounters struct {
	debtKeys     atomic.Int64 // outstanding debt (sum of record priorities)
	deferredKeys atomic.Int64 // cumulative rebuild keys whose work was deferred
}

// rebuildSched is the per-tree scheduler state, embedded in Tree by
// value so it is never nil and costs a tree no allocation of its own;
// the byKey index is allocated on the first deferral, which an eager
// tree never makes.
type rebuildSched[K iindex.Numeric] struct {
	budget int // max rebuild keys per epoch/batch; math.MaxInt = eager

	mu        sync.Mutex
	spent     int  // rebuild keys reserved in the current epoch/batch
	epochOpen bool // a combiner epoch brackets the current batches
	heap      []debtRec[K]
	byKey     map[K]int    // record key → heap position
	parked    []debtRec[K] // records drainDebt set aside; owning goroutine only

	c schedCounters
}

// init sets the per-epoch budget (math.MaxInt when budget ≤ 0) and
// registers the scheduler's gauges with r (nil: unobserved).
func (s *rebuildSched[K]) init(budget int, r *obs.Registry) {
	if budget <= 0 {
		budget = math.MaxInt
	}
	s.budget = budget
	s.c.observe(r)
}

// --- debt heap (max-heap by debt, byKey position index) ---
// All heap mutators run with s.mu held.

func (s *rebuildSched[K]) swap(i, j int) {
	h := s.heap
	h[i], h[j] = h[j], h[i]
	s.byKey[h[i].key] = i
	s.byKey[h[j].key] = j
}

func (s *rebuildSched[K]) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p].debt >= s.heap[i].debt {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *rebuildSched[K]) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r, big := 2*i+1, 2*i+2, i
		if l < n && s.heap[l].debt > s.heap[big].debt {
			big = l
		}
		if r < n && s.heap[r].debt > s.heap[big].debt {
			big = r
		}
		if big == i {
			return
		}
		s.swap(i, big)
		i = big
	}
}

func (s *rebuildSched[K]) heapPush(rec debtRec[K]) {
	if s.byKey == nil {
		s.byKey = make(map[K]int)
	}
	s.heap = append(s.heap, rec)
	s.byKey[rec.key] = len(s.heap) - 1
	s.siftUp(len(s.heap) - 1)
}

// removeAt takes the record at heap position i out of the heap and
// returns it; the debt gauge is the caller's to adjust.
func (s *rebuildSched[K]) removeAt(i int) debtRec[K] {
	rec := s.heap[i]
	last := len(s.heap) - 1
	s.swap(i, last)
	s.heap = s.heap[:last]
	delete(s.byKey, rec.key)
	if i < last {
		s.siftDown(i)
		s.siftUp(i)
	}
	return rec
}

// removeRecord drops the record for key if one exists: its debt is
// repaid or stale.
func (s *rebuildSched[K]) removeRecord(key K) {
	s.mu.Lock()
	if i, ok := s.byKey[key]; ok {
		s.c.debtKeys.Add(-int64(s.removeAt(i).debt))
	}
	s.mu.Unlock()
}

// park sets the top record aside for the rest of a drain, so the
// records below it get their turn; unpark puts every parked record
// back. The debt stays outstanding throughout, so the gauge is not
// touched.
func (s *rebuildSched[K]) park() {
	s.mu.Lock()
	s.parked = append(s.parked, s.removeAt(0))
	s.mu.Unlock()
}

func (s *rebuildSched[K]) unpark() {
	if len(s.parked) == 0 {
		return
	}
	s.mu.Lock()
	for _, rec := range s.parked {
		s.heapPush(rec)
	}
	s.parked = s.parked[:0]
	s.mu.Unlock()
}

// peekTop returns the highest-debt record without removing it.
func (s *rebuildSched[K]) peekTop() (debtRec[K], bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.heap) == 0 {
		return debtRec[K]{}, false
	}
	return s.heap[0], true
}

// --- budget accounting (trigger sites, parallel-safe) ---

// tryReserveRebuild reserves est rebuild keys against the current
// epoch's budget, reporting whether the rebuild may proceed. The
// callers know est exactly — a trigger settles after the batch has
// modified the subtree, so est is its live size — which makes the
// reservation the spend: no refund path, and the per-epoch cap holds
// under parallel settlement because check and reserve are one
// critical section. The comparison is written as est ≤ budget − spent
// so the unlimited (eager) budget cannot overflow; there every
// reservation succeeds.
func (t *Tree[K, V]) tryReserveRebuild(est int) bool {
	s := &t.sched
	s.mu.Lock()
	ok := est <= s.budget-s.spent
	if ok {
		s.spent += est
	}
	s.mu.Unlock()
	return ok
}

// deferRebuild records the subtree keyed by key (its root's rep[0]
// before the triggering batch) as rebuild debt: the trigger fired but
// the epoch's budget could not cover it, so the subtree keeps its
// modifications and modCnt runs past the §7.1 budget until a later
// drain repays it. debt is the subtree's modCnt after the triggering
// batch; est is the rebuild size that was deferred (feeds the
// deferred_keys counter). Called from parallel settlement.
func (t *Tree[K, V]) deferRebuild(key K, debt, est int) {
	s := &t.sched
	s.mu.Lock()
	if i, ok := s.byKey[key]; ok {
		if d := debt - s.heap[i].debt; d > 0 {
			s.heap[i].debt = debt
			s.siftUp(i)
			s.c.debtKeys.Add(int64(d))
		}
	} else {
		s.heapPush(debtRec[K]{key: key, debt: debt})
		s.c.debtKeys.Add(int64(debt))
	}
	s.mu.Unlock()
	s.c.deferredKeys.Add(int64(est))
}

// --- record resolution and drain (owning goroutine only) ---

// stepPos locates key in v.rep for a single-key walk, honoring the
// tree's traversal mode the same way findPositionsSeq does: the walk
// descends children[pos] when !found.
func (t *Tree[K, V]) stepPos(v *node[K, V], key K) (pos int, found bool) {
	if t.cfg.Traverse == TraverseRank {
		ub := upperBoundKeys(v.rep, key)
		if ub > 0 && v.rep[ub-1] == key {
			return ub - 1, true
		}
		return ub, false
	}
	if v.isLeaf() {
		return iindex.InterpolationSearch(v.rep, key)
	}
	return iindex.Find(v.rep, &v.idx, key)
}

// findIndebted resolves a debt-record key against the live tree. It
// returns the topmost over-budget node on the key's root-to-leaf path
// that one epoch's budget can rebuild (size ≤ budget) — rebuilding it
// repays every deeper debt under it in one stroke — and reports
// whether the path holds any over-budget node at all. (nil, false)
// means the record is stale: an enclosing rebuild already repaid it.
// (nil, true) means every over-budget node on the path is larger than
// the whole budget, which no epoch can repay. Staleness is exact: a
// record's key physically stays inside the subtree it was recorded for
// (inner reps are immutable, leaf reps only grow) until a rebuild
// removes the subtree, so the walk cannot stop short of a
// still-indebted recordee.
func (t *Tree[K, V]) findIndebted(key K) (fit *node[K, V], indebted bool) {
	for v := t.root; v != nil; {
		if t.rebuildDue(v, 0) {
			if v.size <= t.sched.budget {
				return v, true
			}
			indebted = true
		}
		if v.isLeaf() {
			break
		}
		pos, found := t.stepPos(v, key)
		if found {
			break
		}
		v = v.children[pos]
	}
	return nil, indebted
}

// drainDebt synchronously repays deferred debt, highest priority
// first, until the heap empties or the next rebuild would push the
// epoch past its budget. A record whose path holds only subtrees
// larger than the whole budget is parked for the rest of the drain, so
// it does not block the debt below it; those subtrees are never
// rebuilt — the documented cost of setting a budget. A rebuilt record
// stays in the heap until the next round re-resolves it: stale if the
// rebuild repaid it, or pointing at the next over-budget node on its
// path. On an eager tree the heap is always empty and this is one lock
// round trip. Owning goroutine only.
func (t *Tree[K, V]) drainDebt() {
	s := &t.sched
	defer s.unpark()
	for {
		rec, ok := s.peekTop()
		if !ok {
			return
		}
		v, indebted := t.findIndebted(rec.key)
		switch {
		case !indebted:
			s.removeRecord(rec.key)
		case v == nil:
			s.park()
		case !t.tryReserveRebuild(v.size):
			return
		default:
			t.replaceAtKey(rec.key, v, t.rebuild(v))
		}
	}
}

// --- epoch bracketing ---

// beginBatch opens the per-batch accounting window of a standalone
// batched mutation: reset the budget and run one drain step. Inside a
// combiner epoch (epochOpen) the bracket is wider — BeginRebuildEpoch
// already reset the budget, and the epoch's PutBatched and
// RemoveBatched share it — so this is a no-op.
func (t *Tree[K, V]) beginBatch() {
	s := &t.sched
	s.mu.Lock()
	open := s.epochOpen
	if !open {
		s.spent = 0
	}
	s.mu.Unlock()
	if !open {
		t.drainDebt()
	}
}

// BeginRebuildEpoch opens one combining epoch's rebuild budget. The
// combiner calls it before executing the epoch (combine.RebuildScheduled);
// every rebuild the epoch's write traversals perform — plus the
// EndRebuildEpoch drain — then shares one RebuildBudgetPerEpoch cap.
func (t *Tree[K, V]) BeginRebuildEpoch() {
	s := &t.sched
	s.mu.Lock()
	s.epochOpen = true
	s.spent = 0
	s.mu.Unlock()
}

// EndRebuildEpoch closes the epoch's budget window after the epoch has
// published, draining debt up to the remaining budget. Returns the
// rebuild keys the epoch spent — the number the per-epoch cap bounds,
// and under the eager default simply every rebuild the epoch ran —
// and the outstanding debt, both of which feed the epoch trace.
func (t *Tree[K, V]) EndRebuildEpoch() (spentKeys, debtKeys int) {
	t.drainDebt()
	s := &t.sched
	s.mu.Lock()
	spentKeys = s.spent
	s.epochOpen = false
	s.mu.Unlock()
	return spentKeys, int(s.c.debtKeys.Load())
}
