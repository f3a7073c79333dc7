package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// schedMutation is one step of a deterministic churn script: a put
// batch or a remove batch, shared verbatim across scheduler configs by
// the differential tests.
type schedMutation struct {
	put  bool
	keys []int64
	vals []int64
}

// schedScript builds a write-heavy churn script: puts with a skewed
// reinsert rate plus periodic removes, sized so the root trips its
// rebuild budget several times over the run.
func schedScript(seed int64, steps, batch int) []schedMutation {
	r := rand.New(rand.NewSource(seed))
	script := make([]schedMutation, 0, steps)
	for i := 0; i < steps; i++ {
		keys := sortedUniqueKeys(r.Int63(), batch, 1<<16)
		if i%4 == 3 {
			script = append(script, schedMutation{keys: keys})
			continue
		}
		vals := make([]int64, len(keys))
		for j := range vals {
			vals[j] = r.Int63()
		}
		script = append(script, schedMutation{put: true, keys: keys, vals: vals})
	}
	return script
}

// applyScript runs script against tr. When epochs is true every step is
// bracketed the way the combiner brackets an epoch — BeginRebuildEpoch,
// mutate, PublishVersion, EndRebuildEpoch — the per-epoch rebuild
// spend is asserted against budget (0 disables the assertion), and the
// result reports the total spend plus how many post-publish drains
// rebuilt something.
func applyScript(t *testing.T, tr *Tree[int64, int64], script []schedMutation, epochs bool, budget int) (spent, drains int) {
	t.Helper()
	for i, m := range script {
		if epochs {
			tr.BeginRebuildEpoch()
		}
		if m.put {
			tr.PutBatched(m.keys, m.vals)
		} else {
			tr.RemoveBatched(m.keys)
		}
		if epochs {
			tr.PublishVersion()
			tr.sched.mu.Lock()
			before := tr.sched.spent
			tr.sched.mu.Unlock()
			n, _ := tr.EndRebuildEpoch()
			if budget > 0 && n > budget {
				t.Fatalf("step %d: epoch spent %d rebuild keys, budget %d", i, n, budget)
			}
			if n > before {
				drains++
			}
			spent += n
		}
	}
	return spent, drains
}

// settleDebt runs empty epochs until the post-publish drain makes no
// more progress, returning the debt left: under a bounded budget, the
// subtrees too large for any one epoch to rebuild.
func settleDebt(tr *Tree[int64, int64]) int {
	prev := -1
	for {
		tr.BeginRebuildEpoch()
		tr.PublishVersion()
		_, debt := tr.EndRebuildEpoch()
		if debt == prev {
			return debt
		}
		prev = debt
	}
}

// TestRebuildBudgetStandaloneBatches: without epoch bracketing, every
// batched mutation is its own budget window — the spend after any batch
// never exceeds the cap, and deferred debt is tracked, not lost.
func TestRebuildBudgetStandaloneBatches(t *testing.T) {
	const budget = 512
	for name, p := range corePools() {
		t.Run(name, func(t *testing.T) {
			tr := New[int64, int64](Config{RebuildBudgetPerEpoch: budget}, p)
			for i, m := range schedScript(11, 120, 512) {
				if m.put {
					tr.PutBatched(m.keys, m.vals)
				} else {
					tr.RemoveBatched(m.keys)
				}
				tr.sched.mu.Lock()
				spent := tr.sched.spent
				tr.sched.mu.Unlock()
				if spent > budget {
					t.Fatalf("batch %d: spent %d rebuild keys, budget %d", i, spent, budget)
				}
			}
			checkInvariants(t, tr)
			if tr.Stats().DeferredKeys == 0 {
				t.Fatal("write-heavy churn never deferred a rebuild; budget not exercised")
			}
		})
	}
}

// TestRebuildBudgetEpochCap: under combiner-style epoch bracketing the
// spend EndRebuildEpoch reports — write-traversal rebuilds plus the
// post-publish drain — respects the cap every epoch, and the drain
// actually repays debt. This is the acceptance assertion behind the
// epoch traces.
func TestRebuildBudgetEpochCap(t *testing.T) {
	const budget = 1024
	t.Run("bounded-sync", func(t *testing.T) {
		tr := New[int64, int64](Config{RebuildBudgetPerEpoch: budget}, nil)
		tr.EnablePublish()
		_, drains := applyScript(t, tr, schedScript(7, 200, 512), true, budget)
		checkInvariants(t, tr)
		if tr.Stats().DeferredKeys == 0 {
			t.Fatal("write-heavy churn never deferred a rebuild; budget not exercised")
		}
		if drains == 0 {
			t.Fatal("no post-publish drain rebuilt anything; debt repayment not exercised")
		}
		settleDebt(tr)
		checkInvariants(t, tr)
	})
}

// TestSchedDifferentialConvergence: one churn script applied under
// eager and bounded scheduling converges to identical contents —
// scheduling moves rebuild work in time, never changes what the tree
// stores — and both pass the full invariant check. Eager epochs report
// the rebuild work they ran, and never defer any.
func TestSchedDifferentialConvergence(t *testing.T) {
	script := schedScript(42, 160, 384)

	eager := New[int64, int64](Config{}, nil)
	eager.EnablePublish()
	eagerSpent, _ := applyScript(t, eager, script, true, 0)
	if eagerSpent == 0 {
		t.Fatal("eager epochs reported no rebuild spend")
	}
	if st := eager.Stats(); st.DeferredKeys != 0 || st.DebtKeys != 0 {
		t.Fatalf("eager tree deferred work: %+v", st)
	}

	bounded := New[int64, int64](Config{RebuildBudgetPerEpoch: 256}, nil)
	bounded.EnablePublish()
	applyScript(t, bounded, script, true, 256)

	wantK, wantV := eager.Items()
	gotK, gotV := bounded.Items()
	if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
		t.Fatalf("bounded diverged from eager: %d keys vs %d", len(gotK), len(wantK))
	}
	checkInvariants(t, bounded)
	checkInvariants(t, eager)
}

// TestBoundedDrainWithSnapshotReaders races the bounded drain's splices
// (replaceAtKey) and the subtree retirements they cause against
// wait-free snapshot readers across many reclamation grace periods:
// readers pin versions, iterate durable snapshots, and must never
// observe a key the published version did not contain. Run under -race
// this also checks the splice path publishes the rebuilt subtree
// safely.
func TestBoundedDrainWithSnapshotReaders(t *testing.T) {
	tr := New[int64, int64](Config{RebuildBudgetPerEpoch: 128}, nil)
	tr.EnablePublish()
	tr.PublishVersion()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r.Intn(3) {
				case 0:
					tr.SnapshotContains(r.Int63n(1 << 14))
				case 1:
					if v, ok := tr.SnapshotGet(r.Int63n(1 << 14)); ok && v < 0 {
						panic("negative value from snapshot")
					}
				default:
					snap := tr.SnapshotNow()
					k := snap.Keys()
					if !slices.IsSorted(k) {
						panic("snapshot keys unsorted")
					}
				}
			}
		}(int64(g) + 1)
	}

	// Small key span + small batches force heavy leaf churn and many
	// subtree retirements, cycling the grace ring while readers hold
	// pins; the post-publish drains splice mid-churn.
	_, drains := applyScript(t, tr, schedScript(99, 250, 128), true, 128)
	settleDebt(tr)
	close(stop)
	wg.Wait()
	if drains == 0 {
		t.Fatal("no post-publish drain rebuilt anything; splice path not exercised")
	}
	checkInvariants(t, tr)
}
