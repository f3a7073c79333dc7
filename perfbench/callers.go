package main

import "fmt"

// caller executes one client call against some layer: it writes get
// answers into vals/found and returns the put/delete count.
type caller func(o *op, vals []uint64, found []bool) int

// pointAPI is the single-key surface shared by pbist.Map, Concurrent
// and Sharded.
type pointAPI interface {
	Get(key int64) (uint64, bool)
	Put(key int64, val uint64) bool
	Delete(key int64) bool
}

// batchAPI is the batched surface shared by pbist.Map, Concurrent and
// Sharded.
type batchAPI interface {
	GetBatch(keys []int64) ([]uint64, []bool)
	PutBatch(keys []int64, vals []uint64) int
	DeleteBatch(keys []int64) int
}

func pointCaller(api pointAPI) caller {
	return func(o *op, vals []uint64, found []bool) int {
		switch o.kind {
		case opGet:
			vals[0], found[0] = api.Get(o.keys[0])
		case opPut:
			return b2i(api.Put(o.keys[0], o.vals[0]))
		case opDelete:
			return b2i(api.Delete(o.keys[0]))
		}
		return 0
	}
}

func batchCaller(api batchAPI) caller {
	return func(o *op, vals []uint64, found []bool) int {
		switch o.kind {
		case opGet:
			v, f := api.GetBatch(o.keys)
			copy(vals, v)
			copy(found, f)
		case opPut:
			return api.PutBatch(o.keys, o.vals)
		case opDelete:
			return api.DeleteBatch(o.keys)
		}
		return 0
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// safeCall runs c and turns a panic into an error, so a crashing call
// counts as a failed operation instead of ending the run.
func safeCall(c caller, o *op, vals []uint64, found []bool) (n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return c(o, vals, found), nil
}
