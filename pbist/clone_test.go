package pbist

import (
	"slices"
	"testing"
)

// Cross-view clone tests: a clone must be fully detached — no batched
// operation, value overwrite, or rebuild on either side may ever be
// observable through the other — with scratch recycling on, as the
// public views always run (recycled scratch is per-tree, so cloning
// from a mid-churn tree must not share buffers either). The
// recycling-off path is covered by core's noReuse differential
// configs.

func cloneOpts() Options {
	return Options{Workers: 2, LeafCap: 8}
}

func TestTreeCloneDetached(t *testing.T) {
	t.Run("reuseOn", func(t *testing.T) {
		tr := NewFromKeys(cloneOpts(), rangeKeys(0, 20_000, 3))
		tr.RemoveBatch(rangeKeys(0, 3_000, 6)) // leave dead keys + rebuild debt
		want := tr.Keys()

		cp := tr.Clone()
		if got := cp.Keys(); !slices.Equal(got, want) {
			t.Fatalf("clone contents differ: %d vs %d keys", len(got), len(want))
		}
		if s := cp.Stats(); s.DeadKeys != 0 {
			t.Fatalf("clone carries %d dead keys; Clone must compact", s.DeadKeys)
		}

		// Churn the original hard enough to trigger rebuilds; the clone
		// must not move.
		for i := 0; i < 8; i++ {
			tr.InsertBatch(rangeKeys(int64(i), 4_000, 5))
			tr.RemoveBatch(rangeKeys(int64(i), 4_000, 7))
		}
		if got := cp.Keys(); !slices.Equal(got, want) {
			t.Fatal("clone drifted after mutating the original")
		}

		// And the reverse: churn the clone, original must not move.
		snap := tr.Keys()
		for i := 0; i < 8; i++ {
			cp.InsertBatch(rangeKeys(int64(i)+100, 4_000, 9))
			cp.RemoveBatch(rangeKeys(int64(i), 4_000, 3))
		}
		if got := tr.Keys(); !slices.Equal(got, snap) {
			t.Fatal("original drifted after mutating the clone")
		}
	})
}

func TestMapCloneDetachedValues(t *testing.T) {
	t.Run("reuseOn", func(t *testing.T) {
		keys := rangeKeys(0, 10_000, 2)
		vals := make([]int64, len(keys))
		for i, k := range keys {
			vals[i] = k * 10
		}
		m := NewMapFromItems(cloneOpts(), keys, vals)
		cp := m.Clone()

		// Overwrite every value in the original; the clone keeps the
		// old values (value slots live in per-tree chunk storage).
		newVals := make([]int64, len(keys))
		for i, k := range keys {
			newVals[i] = -k
		}
		m.PutBatch(keys, newVals)
		for _, k := range []int64{keys[0], keys[len(keys)/2], keys[len(keys)-1]} {
			got, ok := cp.Get(k)
			if !ok || got != k*10 {
				t.Fatalf("clone value for %d drifted: got %d ok=%v, want %d", k, got, ok, k*10)
			}
			orig, _ := m.Get(k)
			if orig != -k {
				t.Fatalf("original value for %d wrong after overwrite: %d", k, orig)
			}
		}

		// Deletes in the clone leave the original intact.
		cp.DeleteBatch(keys[:100])
		if m.Len() != len(keys) {
			t.Fatalf("deleting in clone shrank original to %d", m.Len())
		}
		if cp.Len() != len(keys)-100 {
			t.Fatalf("clone Len = %d, want %d", cp.Len(), len(keys)-100)
		}
	})
}

func TestCloneSharesNoArena(t *testing.T) {
	// A clone starts with fresh arena counters: buffers never migrate
	// from the receiver, so its scratch statistics begin at the cost of
	// its own construction, not the receiver's history.
	tr := NewFromKeys(cloneOpts(), rangeKeys(0, 50_000, 1))
	for i := 0; i < 5; i++ {
		tr.InsertBatch(rangeKeys(int64(i), 2_000, 11))
	}
	before := tr.Stats()
	cp := tr.Clone()
	if after := tr.Stats(); after.ChunkBuilds < before.ChunkBuilds {
		t.Fatal("cloning rewound the receiver's chunk counters")
	}
	if s := cp.Stats(); s.ChunkBuilds < 1 {
		t.Fatal("clone should record its own rebuild")
	} else if s.ChunkBuilds > before.ChunkBuilds+1 {
		t.Fatalf("clone inherited the receiver's counters: %d chunk builds", s.ChunkBuilds)
	}
}

func rangeKeys(start int64, n int, stride int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)*stride
	}
	return out
}
