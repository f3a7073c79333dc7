package core

import "testing"

// checkInvariants fails the test when tr.Check finds a broken
// invariant. It is the shared post-condition of the differential,
// cross-implementation, and set-algebra tests.
func checkInvariants[V any](t *testing.T, tr *Tree[int64, V]) {
	t.Helper()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}
