package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// writeModel is the map oracle of the batched write tests: the live
// keys with their values, plus every key ever removed, so scripts can
// aim batches at dead slots (removed keys a rebuild has not yet
// reclaimed).
type writeModel struct {
	live map[int64]int64
	gone map[int64]bool
}

func newWriteModel() *writeModel {
	return &writeModel{live: map[int64]int64{}, gone: map[int64]bool{}}
}

// apply runs one batch against the model and returns the count the
// tree must report.
func (m *writeModel) apply(op writeOp, keys, vals []int64) int {
	n := 0
	for i, k := range keys {
		_, live := m.live[k]
		switch op {
		case opPut:
			if !live {
				n++
			}
			m.live[k] = vals[i]
		case opInsert:
			if !live {
				n++
				m.live[k] = 0
			}
		case opRemove:
			if live {
				n++
				delete(m.live, k)
				m.gone[k] = true
			}
		}
	}
	return n
}

// applyWrite runs one batch against tree and model and checks the
// returned count, the full contents, and the structural invariants.
func applyWrite(t *testing.T, step string, tr *Tree[int64, int64], m *writeModel, op writeOp, keys, vals []int64) {
	t.Helper()
	want := m.apply(op, keys, vals)
	var got int
	switch op {
	case opPut:
		got = tr.PutBatched(keys, vals)
	case opInsert:
		got = tr.InsertBatched(keys)
	case opRemove:
		got = tr.RemoveBatched(keys)
	}
	if got != want {
		t.Fatalf("%s, op %d on %d keys: tree reported %d, model %d", step, op, len(keys), got, want)
	}
	gotK, gotV := tr.Items()
	wantK := slices.Sorted(maps.Keys(m.live))
	if !slices.Equal(gotK, wantK) {
		t.Fatalf("%s, op %d: tree holds %d keys, model %d", step, op, len(gotK), len(wantK))
	}
	for i, k := range gotK {
		if gotV[i] != m.live[k] {
			t.Fatalf("%s, op %d: key %d has value %d, model %d", step, op, k, gotV[i], m.live[k])
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("%s, op %d: %v", step, op, err)
	}
}

// writeBatch draws a sorted duplicate-free batch mixing live keys, dead
// keys, and absent keys from [0, span), with random values. One batch
// in four is larger than seqSegCutoff, so pooled trees take the
// parallel recursion as well as the sequential path.
func writeBatch(r *rand.Rand, m *writeModel, span int64) (keys, vals []int64) {
	n := 1 + r.Intn(200)
	if r.Intn(4) == 0 {
		n = seqSegCutoff + 1 + r.Intn(3*seqSegCutoff)
	}
	live := slices.Collect(maps.Keys(m.live))
	gone := slices.Collect(maps.Keys(m.gone))
	set := make(map[int64]bool, n)
	for len(set) < n {
		switch c := r.Intn(3); {
		case c == 0 && len(live) > 0:
			set[live[r.Intn(len(live))]] = true
		case c == 1 && len(gone) > 0:
			set[gone[r.Intn(len(gone))]] = true
		default:
			set[r.Int63n(span)] = true
		}
	}
	keys = slices.Sorted(maps.Keys(set))
	vals = make([]int64, len(keys))
	for i := range vals {
		vals[i] = r.Int63()
	}
	return keys, vals
}

// writeConfigs are the tree shapes the write scripts run on: no pool
// and two workers, eager and with a small rebuild budget, all with
// small leaves and a tight rebuild factor so rebuilds fire often.
func writeConfigs() map[string]func() *Tree[int64, int64] {
	w2 := parallel.NewPool(2)
	mk := func(p *parallel.Pool, budget int) func() *Tree[int64, int64] {
		return func() *Tree[int64, int64] {
			return New[int64, int64](Config{LeafCap: 8, RebuildFactor: 1, RebuildBudgetPerEpoch: budget}, p)
		}
	}
	return map[string]func() *Tree[int64, int64]{
		"seq/eager":  mk(nil, 0),
		"seq/budget": mk(nil, 64),
		"w2/eager":   mk(w2, 0),
		"w2/budget":  mk(w2, 64),
	}
}

// FuzzTreeBatchWrites runs a seeded script of Put, Insert, and Remove
// batches on every write configuration, checking each batch's count
// and the whole contents against a map oracle and then Check.
func FuzzTreeBatchWrites(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 20230711} {
		f.Add(seed, uint8(24))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		for name, mk := range writeConfigs() {
			r := rand.New(rand.NewSource(seed))
			tr, m := mk(), newWriteModel()
			for i := 0; i < int(steps%48); i++ {
				keys, vals := writeBatch(r, m, 1<<13)
				applyWrite(t, fmt.Sprintf("%s step %d", name, i), tr, m, writeOp(r.Intn(3)), keys, vals)
			}
		}
	})
}

// TestBatchWritesEdgeCases pins the batch shapes the script draws only
// by chance: writes into an empty tree, batches that are all absent or
// all live, on every write configuration.
func TestBatchWritesEdgeCases(t *testing.T) {
	evens := seqKeys(3000, 0, 2)
	odds := seqKeys(3000, 1, 2)
	vals := func(keys []int64, add int64) []int64 {
		out := make([]int64, len(keys))
		for i, k := range keys {
			out[i] = k + add
		}
		return out
	}
	type step struct {
		op   writeOp
		keys []int64
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"empty/remove", []step{{opRemove, evens}}},
		{"empty/insert", []step{{opInsert, evens}}},
		{"empty/put", []step{{opPut, evens}}},
		{"allAbsent/remove", []step{{opPut, evens}, {opRemove, odds}}},
		{"allAbsent/insert", []step{{opPut, evens}, {opInsert, odds}}},
		{"allAbsent/put", []step{{opPut, evens}, {opPut, odds}}},
		{"allLive/remove", []step{{opPut, evens}, {opRemove, evens}}},
		{"allLive/insert", []step{{opPut, evens}, {opInsert, evens}}},
		{"allLive/put", []step{{opPut, evens}, {opPut, evens}}},
		{"allDead/revive", []step{{opPut, evens}, {opRemove, evens[:1000]}, {opInsert, evens[:1000]}}},
		{"allDead/remove", []step{{opPut, evens}, {opRemove, evens[:1000]}, {opRemove, evens[:1000]}}},
	}
	for name, mk := range writeConfigs() {
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				tr, m := mk(), newWriteModel()
				for i, s := range c.steps {
					applyWrite(t, fmt.Sprintf("step %d", i), tr, m, s.op, s.keys, vals(s.keys, int64(i)))
				}
			})
		}
	}
}

// TestRootRebuildSubsumesDescendants: when one batch fires the root's
// §7.1 trigger together with its descendants', only the root is
// rebuilt — the filter-first order stops at the first due node on each
// path, so the descendants' rebuilds would be subsumed work.
func TestRootRebuildSubsumesDescendants(t *testing.T) {
	base := seqKeys(4000, 0, 2)
	var b []int64 // 40% of the base, spread evenly
	for i, k := range base {
		if i%5 < 2 {
			b = append(b, k)
		}
	}
	for name, p := range corePools() {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tr := NewFromSortedKV(Config{RebuildFactor: 1, Metrics: reg}, p, base, make([]int64, len(base)))
			tr.RemoveBatched(b) // root at 1600 of its 4000 budget
			tr.InsertBatched(b) // 3200
			if tr.rebuildDue(tr.root, 0) || !tr.rebuildDue(tr.root, len(b)) {
				t.Fatal("setup: the next removal should fire the root")
			}
			dueKids := 0
			for i, c := range tr.root.children {
				lo, hi := int64(-1), int64(1<<62)
				if i > 0 {
					lo = tr.root.rep[i-1]
				}
				if i < len(tr.root.rep) {
					hi = tr.root.rep[i]
				}
				k := 0
				for _, x := range b {
					if x > lo && x < hi {
						k++
					}
				}
				if c != nil && tr.rebuildDue(c, k) {
					dueKids++
				}
			}
			if dueKids == 0 {
				t.Fatal("setup: the next removal should fire some root children too")
			}
			before := reg.Snapshot().Counters["core.rebuild.count"]
			if n := tr.RemoveBatched(b); n != len(b) {
				t.Fatalf("removed %d keys, want %d", n, len(b))
			}
			if d := reg.Snapshot().Counters["core.rebuild.count"] - before; d != 1 {
				t.Fatalf("batch ran %d rebuilds with %d root children due, want only the root's", d, dueKids)
			}
			if tr.root.modCnt != 0 || tr.root.initSize != tr.Len() {
				t.Fatalf("root not rebuilt: modCnt %d, initSize %d, len %d", tr.root.modCnt, tr.root.initSize, tr.Len())
			}
			checkInvariants(t, tr)
		})
	}
}

// TestWriteNoOpCopiesNothing: on a publishing tree, a removal of only
// dead and absent keys and an insertion of only live keys change
// nothing, so they must copy no node — the root stays pointer-identical
// and no node of the current write generation exists — and a version
// pinned across a mixed write batch keeps reading what it was
// published with.
func TestWriteNoOpCopiesNothing(t *testing.T) {
	for name, p := range corePools() {
		t.Run(name, func(t *testing.T) {
			tr := New[int64, int64](Config{}, p)
			tr.EnablePublish()
			evens := seqKeys(6000, 0, 2)
			tr.PutBatched(evens, evens)
			tr.RemoveBatched(evens[:1000])
			tr.PublishVersion()

			noCopy := func(what string) {
				t.Helper()
				var walk func(v *node[int64, int64])
				walk = func(v *node[int64, int64]) {
					if v == nil {
						return
					}
					if v.gen == tr.writeGen {
						t.Fatalf("%s copied a node", what)
					}
					for _, c := range v.children {
						walk(c)
					}
				}
				walk(tr.root)
				if tr.dirty {
					t.Fatalf("%s marked the tree dirty", what)
				}
			}
			root := tr.root
			deadAndAbsent := append(slices.Clone(evens[:1000]), seqKeys(2000, 20001, 2)...)
			if n := tr.RemoveBatched(deadAndAbsent); n != 0 {
				t.Fatalf("removal of dead and absent keys removed %d", n)
			}
			noCopy("removal of dead and absent keys")
			if n := tr.InsertBatched(evens[1000:]); n != 0 {
				t.Fatalf("insertion of live keys inserted %d", n)
			}
			noCopy("insertion of live keys")
			if tr.root != root {
				t.Fatal("no-op batches replaced the root")
			}

			pin := tr.PinReader()
			defer pin.Release()
			ver := tr.CurrentVersion()
			wantK, wantV := tr.VersionItems(ver)
			mixed := seqKeys(3000, 1, 3) // live, dead, and absent keys
			tr.PutBatched(mixed, make([]int64, len(mixed)))
			tr.RemoveBatched(seqKeys(2000, 2, 4))
			tr.PublishVersion()
			gotK, gotV := tr.VersionItems(ver)
			if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
				t.Fatal("pinned version changed under a mixed write batch")
			}
		})
	}
}
