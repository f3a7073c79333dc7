package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// goldenShapeDigest pins the paper's eager §7.1 rebuild policy bit for
// bit: a fixed seeded put/remove script, applied to a default-config
// tree, must leave exactly this node layout. Any change to when a
// subtree is rebuilt, or to how a rebuild lays it out, moves the digest.
const goldenShapeDigest uint64 = 0xecb0e2dac4ce7626

// goldenScript is a write-heavy churn script with batch sizes on both
// sides of seqSegCutoff, so a pooled tree takes the parallel recursion
// as well as the sequential path, and the root trips its rebuild budget
// several times over.
func goldenScript() []schedMutation {
	r := rand.New(rand.NewSource(20230711))
	script := make([]schedMutation, 0, 240)
	for i := 0; i < 240; i++ {
		batch := 32 << (i % 7) // 32 … 2048
		keys := sortedUniqueKeys(r.Int63(), batch, 1<<17)
		if i%3 == 2 {
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

// shapeDigest hashes every node's rep, initSize, and modCnt in
// pre-order, with a marker for each empty child slot so the digest
// also fixes the tree's topology.
func shapeDigest[V any](tr *Tree[int64, V]) uint64 {
	h := fnv.New64a()
	var walk func(v *node[int64, V])
	walk = func(v *node[int64, V]) {
		if v == nil {
			writeInt(h, -1)
			return
		}
		writeInt(h, int64(len(v.rep)))
		for _, k := range v.rep {
			writeInt(h, k)
		}
		writeInt(h, int64(v.initSize))
		writeInt(h, int64(v.modCnt))
		writeInt(h, int64(len(v.children)))
		for _, c := range v.children {
			walk(c)
		}
	}
	walk(tr.root)
	return h.Sum64()
}

func writeInt(h hash.Hash64, x int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(x))
	h.Write(b[:])
}

// TestEagerRebuildGoldenShape: the default (eager) configuration
// reproduces the §7.1 rebuild sequence exactly, on the sequential and
// the parallel path, both as standalone batches and under
// combiner-style epoch bracketing on a publishing tree, and never
// defers a rebuild.
func TestEagerRebuildGoldenShape(t *testing.T) {
	script := goldenScript()
	pools := map[string]*parallel.Pool{"seq": nil, "w2": parallel.NewPool(2)}
	for name, p := range pools {
		for _, epochs := range []bool{false, true} {
			mode := "standalone"
			if epochs {
				mode = "epochs"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				tr := New[int64, int64](Config{}, p)
				if epochs {
					tr.EnablePublish()
				}
				applyScript(t, tr, script, epochs, 0)
				checkInvariants(t, tr)
				if d := tr.Stats().DeferredKeys; d != 0 {
					t.Fatalf("eager tree deferred %d rebuild keys", d)
				}
				if got := shapeDigest(tr); got != goldenShapeDigest {
					t.Fatalf("shape digest %#x, want %#x", got, goldenShapeDigest)
				}
			})
		}
	}
}
