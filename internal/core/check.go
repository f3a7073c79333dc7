package core

import (
	"fmt"
	"slices"
)

// Check validates the structural invariants of the whole tree and
// returns the first violation found, or nil: every Rep is strictly
// increasing and lies strictly inside the key range its parent routes
// to it; rep, vals, and exists have equal lengths and an inner node
// has len(rep)+1 children; every size counts exactly the live keys
// below it; no node has outrun its §7.1 rebuild budget unless the
// rebuild scheduler holds a debt record for it; and Stats and Height
// agree with the walk. O(n) sequential work, for tests and debugging;
// like every read it must not run concurrently with a batched update.
func (t *Tree[K, V]) Check() error {
	var debtKeys []K
	t.sched.mu.Lock()
	for _, rec := range t.sched.heap {
		debtKeys = append(debtKeys, rec.key)
	}
	t.sched.mu.Unlock()
	live, err := t.checkNode(t.root, nil, nil, debtKeys)
	if err != nil {
		return err
	}
	s := t.Stats()
	switch {
	case live != t.Len() || s.LiveKeys != t.Len():
		return fmt.Errorf("walked live count %d, Stats.LiveKeys %d, Len %d", live, s.LiveKeys, t.Len())
	case t.Height() != s.Height:
		return fmt.Errorf("Height() %d != Stats.Height %d", t.Height(), s.Height)
	case t.Len() > 0 && s.Height < 1:
		return fmt.Errorf("non-empty tree with height %d", s.Height)
	case t.Len() == 0 && t.root != nil && s.DeadKeys == 0:
		return fmt.Errorf("empty tree retains a root without dead keys")
	}
	return nil
}

// checkNode validates subtree v, whose keys must lie strictly between
// lo and hi (nil: unbounded), and returns its live key count.
func (t *Tree[K, V]) checkNode(v *node[K, V], lo, hi *K, debtKeys []K) (int, error) {
	if v == nil {
		return 0, nil
	}
	switch {
	case len(v.rep) == 0 || len(v.exists) != len(v.rep) || len(v.vals) != len(v.rep):
		return 0, fmt.Errorf("rep/vals/exists lengths %d/%d/%d", len(v.rep), len(v.vals), len(v.exists))
	case lo != nil && v.rep[0] <= *lo, hi != nil && v.rep[len(v.rep)-1] >= *hi:
		return 0, fmt.Errorf("rep [%v, %v] outside its parent's key range", v.rep[0], v.rep[len(v.rep)-1])
	case v.modCnt < 0 || v.initSize < 0:
		return 0, fmt.Errorf("negative rebuild counters: modCnt=%d initSize=%d", v.modCnt, v.initSize)
	}
	for i := 1; i < len(v.rep); i++ {
		if v.rep[i] <= v.rep[i-1] {
			return 0, fmt.Errorf("rep not strictly increasing at %v", v.rep[i])
		}
	}
	// Past the budget is legal only under a covering debt record: a
	// record's key stays inside the subtree it was recorded for until a
	// rebuild repays it (sched.go).
	if t.rebuildDue(v, 0) && !slices.ContainsFunc(debtKeys, func(k K) bool {
		return (lo == nil || k > *lo) && (hi == nil || k < *hi)
	}) {
		return 0, fmt.Errorf("modCnt %d exceeds the rebuild budget of initSize %d with no covering debt record", v.modCnt, v.initSize)
	}
	live := 0
	for _, ok := range v.exists {
		live += b2i(ok)
	}
	if !v.isLeaf() {
		if len(v.children) != len(v.rep)+1 {
			return 0, fmt.Errorf("%d children for %d rep keys", len(v.children), len(v.rep))
		}
		for i, c := range v.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &v.rep[i-1]
			}
			if i < len(v.rep) {
				chi = &v.rep[i]
			}
			n, err := t.checkNode(c, clo, chi, debtKeys)
			if err != nil {
				return 0, err
			}
			live += n
		}
	}
	if v.size != live {
		return 0, fmt.Errorf("size %d != live count %d", v.size, live)
	}
	return live, nil
}
