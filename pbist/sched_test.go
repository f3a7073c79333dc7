package pbist_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/pbist"
)

// schedChurn hammers c with write-heavy churn over a small key span
// from several goroutines, returning the final expected contents (a
// merged per-goroutine oracle over disjoint stripes).
func schedChurn(t *testing.T, c *pbist.Concurrent[int64, int64], goroutines, steps int) map[int64]int64 {
	t.Helper()
	const stride = 1 << 10
	oracles := make([]map[int64]int64, goroutines)
	var wg sync.WaitGroup
	for id := 0; id < goroutines; id++ {
		oracles[id] = make(map[int64]int64)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			oracle := oracles[id]
			r := dist.NewRNG(0x5c4ed ^ uint64(id)*0x9e37)
			base := int64(id) * stride
			for step := 0; step < steps; step++ {
				k := base + r.Int63n(stride)
				if r.Uint64n(5) == 0 {
					c.Delete(k)
					delete(oracle, k)
				} else {
					v := int64(r.Uint64() >> 1)
					c.Put(k, v)
					oracle[k] = v
				}
			}
		}(id)
	}
	wg.Wait()
	merged := make(map[int64]int64)
	for _, o := range oracles {
		for k, v := range o {
			merged[k] = v
		}
	}
	return merged
}

func checkAgainstOracle(t *testing.T, c *pbist.Concurrent[int64, int64], oracle map[int64]int64) {
	t.Helper()
	keys, vals := c.Items()
	if len(keys) != len(oracle) {
		t.Fatalf("Items() has %d keys, oracle %d", len(keys), len(oracle))
	}
	if !slices.IsSorted(keys) {
		t.Fatal("Items() keys not sorted")
	}
	for i, k := range keys {
		if want, ok := oracle[k]; !ok || vals[i] != want {
			t.Fatalf("Items()[%d] = (%d, %d), oracle (%d, %v)", i, k, vals[i], want, ok)
		}
	}
}

// TestConcurrentRebuildBudgetTrace is the acceptance assertion at the
// frontend: with a rebuild budget set, no combining epoch spends more
// than the cap in rebuild keys — checked against the epoch traces the
// combiner records — and write-heavy churn actually exercises the
// deferral path (some epoch reports outstanding debt). Eager epochs
// run the same path with no cap: they report the rebuild work they
// spent and never any debt.
func TestConcurrentRebuildBudgetTrace(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int
	}{{"bounded-sync", 256}, {"eager", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			c := pbist.NewConcurrent[int64, int64](pbist.ConcurrentOptions{
				Options:    pbist.Options{RebuildBudgetPerEpoch: tc.budget},
				TraceDepth: 4096,
			})
			defer c.Close()
			oracle := schedChurn(t, c, 8, 4000)
			c.Flush()

			traces := c.Trace(0)
			if len(traces) == 0 {
				t.Fatal("no epoch traces recorded")
			}
			sawSpend, sawDebt := false, false
			for _, tr := range traces {
				if tc.budget > 0 && tr.RebuildKeys > tc.budget {
					t.Fatalf("epoch %d spent %d rebuild keys, budget %d", tr.Seq, tr.RebuildKeys, tc.budget)
				}
				if tr.RebuildKeys > 0 {
					sawSpend = true
				}
				if tr.RebuildDebt > 0 {
					sawDebt = true
				}
			}
			if !sawSpend {
				t.Fatal("no epoch spent rebuild work; churn too light for the test to mean anything")
			}
			if wantDebt := tc.budget > 0; sawDebt != wantDebt {
				t.Fatalf("epoch traces report debt = %v, want %v", sawDebt, wantDebt)
			}
			checkAgainstOracle(t, c, oracle)
		})
	}
}

// TestConcurrentRebuildDebtClose closes a frontend while rebuild debt
// is outstanding: with a budget far below the tree size the root's
// rebuild can never be repaid, so every Close lands on live debt. A
// snapshot taken before Close must stay fully readable after it
// (version readers survive Close).
func TestConcurrentRebuildDebtClose(t *testing.T) {
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		c := pbist.NewConcurrent[int64, int64](pbist.ConcurrentOptions{
			Options:    pbist.Options{RebuildBudgetPerEpoch: 64},
			TraceDepth: 1,
		})
		oracle := schedChurn(t, c, 4, 1500)
		snap := c.Snapshot()
		if tr := c.Trace(1); len(tr) != 1 || tr[0].RebuildDebt == 0 {
			t.Fatalf("round %d: no rebuild debt outstanding before Close: %+v", round, tr)
		}
		c.Close()

		keys := snap.Keys()
		if !slices.IsSorted(keys) {
			t.Fatalf("round %d: snapshot keys unsorted after Close", round)
		}
		for _, k := range keys {
			if _, ok := snap.Get(k); !ok {
				t.Fatalf("round %d: snapshot lost key %d after Close", round, k)
			}
		}
		if len(keys) != len(oracle) {
			t.Fatalf("round %d: snapshot has %d keys, oracle %d", round, len(keys), len(oracle))
		}
	}
}
