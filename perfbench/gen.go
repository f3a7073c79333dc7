package main

import (
	"hash/fnv"

	"repro/internal/dist"
)

// Every input is derived from --seed through dist.RNG streams forked in
// a fixed order, so one seed always yields byte-identical base sets,
// batches and scripts, whatever the scheduling.

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "delete"}

// rootRNG is the stream every input of one workload run forks from.
func rootRNG(p params) *dist.RNG {
	h := fnv.New64a()
	h.Write([]byte(p.Workload))
	return dist.NewRNG(p.Seed ^ h.Sum64())
}

// value is the payload stored under key by the version-th write that
// touches it, so a stale or misrouted value never passes the oracle.
func value(key int64, version uint64) uint64 {
	x := uint64(key)*0x9e3779b97f4a7c15 ^ version*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return x*0x94d049bb133111eb | 1
}

// inputs is the seeded base set of a workload plus what the key
// generators need to draw traffic from the same key space.
type inputs struct {
	keys []int64  // sorted, distinct
	vals []uint64 // vals[i] = value(keys[i], 0)
	// windows holds the low end of each cluster window (churn only).
	windows []int64
}

func genInputs(p params, r *dist.RNG) inputs {
	var in inputs
	if p.Clusters == 0 {
		in.keys = dist.HalfDense(r, 0, p.Universe-1, p.Density)
	} else {
		// Windows sit at fixed, evenly spaced places; only which keys
		// they hold is drawn. Random placement would change the tree's
		// shape, and with it bytes_per_key, from seed to seed.
		seg := p.ClusterSpan / int64(p.Clusters)
		for j := 0; j < p.Clusters; j++ {
			lo := int64(j)*seg + (seg-p.ClusterWidth)/2
			in.windows = append(in.windows, lo)
			in.keys = append(in.keys, dist.HalfDense(r, lo, lo+p.ClusterWidth-1, p.Density)...)
		}
	}
	in.vals = make([]uint64, len(in.keys))
	for i, k := range in.keys {
		in.vals[i] = value(k, 0)
	}
	return in
}

// keyGen draws keys of the workload's key space that belong to one
// client: key mod clients == client. Disjoint ownership is what lets
// each client predict every answer of its own script exactly.
type keyGen struct {
	r       *dist.RNG
	p       params
	windows []int64
	client  int64
	clients int64
}

func newKeyGen(p params, in inputs, r *dist.RNG, client int) *keyGen {
	return &keyGen{r: r, p: p, windows: in.windows, client: int64(client), clients: int64(p.Clients)}
}

func (g *keyGen) next() int64 {
	if g.windows == nil { // uniform over the universe
		return g.r.Int63n(g.p.Universe/g.clients)*g.clients + g.client
	}
	lo := g.windows[g.r.Int63n(int64(len(g.windows)))]
	lo -= lo % g.clients
	return lo + g.r.Int63n(g.p.ClusterWidth/g.clients)*g.clients + g.client
}

// op is one client call: a kind and its keys (and values for puts).
type op struct {
	kind opKind
	keys []int64
	vals []uint64
}

// script is one client's endless seeded stream of calls. It reuses the
// op's buffers, so drawing a call does not allocate in steady state.
type script struct {
	gen     *keyGen
	r       *dist.RNG
	p       params
	version uint64
}

func newScript(p params, in inputs, r *dist.RNG, client int) *script {
	return &script{gen: newKeyGen(p, in, r.Fork(), client), r: r.Fork(), p: p}
}

func (s *script) next(o *op) {
	x := int(s.r.Int63n(100))
	switch {
	case x < s.p.Mix[0]:
		o.kind = opGet
	case x < s.p.Mix[0]+s.p.Mix[1]:
		o.kind = opPut
	default:
		o.kind = opDelete
	}
	o.keys = o.keys[:0]
	o.vals = o.vals[:0]
	s.version++
	for range s.p.CallKeys {
		k := s.gen.next()
		o.keys = append(o.keys, k)
		if o.kind == opPut {
			o.vals = append(o.vals, value(k, s.version))
		}
	}
}

// freshBatch is one batch-workload call: m distinct uniform keys of the
// universe in shuffled order.
func freshBatch(r *dist.RNG, p params) []int64 {
	keys := dist.UniformSet(r, p.CallKeys, 0, p.Universe-1)
	for i := len(keys) - 1; i > 0; i-- {
		j := r.Int63n(int64(i + 1))
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}
