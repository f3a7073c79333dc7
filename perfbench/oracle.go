package main

import "fmt"

// oracle is the plain Go map one client's answers are checked against.
// It holds exactly the keys the client owns, so it predicts every
// answer of that client's calls whatever the other clients do.
// Batches are applied key by key in input order, which is the
// library's contract for duplicates: a put counts a key as inserted
// once and the last value wins, a delete counts it once.
type oracle map[int64]uint64

func newOracle(in inputs, client, clients int) oracle {
	o := make(oracle, len(in.keys)/clients+1)
	for i, k := range in.keys {
		if int(k%int64(clients)) == client {
			o[k] = in.vals[i]
		}
	}
	return o
}

// check applies o's call to the oracle and reports whether the
// library's answer matches: vals/found for gets, count for puts and
// deletes.
func (or oracle) check(o *op, vals []uint64, found []bool, count int) bool {
	ok := true
	switch o.kind {
	case opGet:
		for i, k := range o.keys {
			v, present := or[k]
			if found[i] != present || (present && vals[i] != v) {
				ok = false
			}
		}
	case opPut:
		inserted := 0
		for i, k := range o.keys {
			if _, present := or[k]; !present {
				inserted++
			}
			or[k] = o.vals[i]
		}
		ok = inserted == count
	case opDelete:
		removed := 0
		for _, k := range o.keys {
			if _, present := or[k]; present {
				removed++
				delete(or, k)
			}
		}
		ok = removed == count
	}
	return ok
}

// checkItems compares a structure's final sorted contents with the
// union of the client oracles.
func checkItems(keys []int64, vals []uint64, oracles []oracle) error {
	want := 0
	for _, o := range oracles {
		want += len(o)
	}
	if len(keys) != want || len(vals) != want {
		return fmt.Errorf("final Items: %d keys, %d values, oracle has %d", len(keys), len(vals), want)
	}
	for i, k := range keys {
		if i > 0 && k <= keys[i-1] {
			return fmt.Errorf("final Items: keys not strictly ascending at %d", i)
		}
		v, ok := oracles[int(k%int64(len(oracles)))][k]
		if !ok || v != vals[i] {
			return fmt.Errorf("final Items: key %d holds %d, oracle %d (present %v)", k, vals[i], v, ok)
		}
	}
	return nil
}
