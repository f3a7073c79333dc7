package bench

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/pbist"
)

// LatencyRow is one point of the latency experiment: client-observed
// point-operation latency percentiles for one frontend under one batch
// distribution at a fixed offered arrival rate. Latencies are measured
// open-loop — from each operation's scheduled arrival time, not from
// the moment the client got around to issuing it — so an engine stall
// charges every operation queued behind it and the percentiles are
// free of coordinated omission.
type LatencyRow struct {
	Frontend     string  // "concurrent" | "sharded"
	Dist         string  // batch distribution the keys were drawn from
	Clients      int     // client goroutines offering load
	OfferedKops  float64 // scheduled arrival rate, thousand ops/s (all clients)
	AchievedKops float64 // completed ops over wall time
	MeanUS       float64
	P50US        float64
	P90US        float64
	P99US        float64
	P999US       float64
	MaxUS        float64
	// LateP50US and LateP99US are quantiles of the clients' wake-up
	// lateness (sleep overshoot), which the latency columns exclude.
	LateP50US float64
	LateP99US float64
}

// latencyDists is the distribution grid of the latency experiment: the
// smooth case interpolation search is built for and the skewed case
// that hammers a few shards/subtrees.
var latencyDists = []string{"uniform", "zipf"}

// punctual charges open-loop latency without generator overshoot.
//
// A client's i-th operation is due at sched_i, but a sleeping client
// wakes late (time.Sleep overshoots by about a millisecond on a loaded
// 2-vCPU machine), and charging now − sched_i would bill that
// overshoot to the engine. Instead each operation is charged its own
// service time plus the backlog a punctual client would have built up
// behind the same client's earlier operations:
//
//	start'_i = max(sched_i, done'_{i-1})
//	done'_i  = start'_i + service_i
//	charged  = done'_i − sched_i
//
// When the engine keeps up, charged is the service time; when
// operations take longer than the interval, the queue a punctual
// client would have seen is charged in full, so the figure stays free
// of coordinated omission. The client's own lateness — how long after
// max(sched_i, done_{i-1}) the operation was actually issued — is
// returned separately and never charged. All times are offsets from
// the replay's start.
type punctual struct {
	doneP time.Duration // done' of the previous operation
	done  time.Duration // real completion of the previous operation
}

func (a *punctual) charge(sched, issue, done time.Duration) (charged, late time.Duration) {
	start := max(sched, a.doneP)
	a.doneP = start + (done - issue)
	late = max(0, issue-max(sched, a.done))
	a.done = done
	return a.doneP - sched, late
}

// replayOpenLoop replays every client script open-loop: client c's
// i-th operation is scheduled at start + i·interval, the client sleeps
// until then (never ahead) and issues the op. When the engine falls
// behind, the client does not wait to reschedule — overdue operations
// fire back to back. Each operation's charged latency (see punctual)
// is recorded into h and the client's wake-up lateness into late, so
// a stall is charged to every operation it postpones while sleep
// overshoot is reported apart.
func replayOpenLoop(scripts [][]scriptOp, interval time.Duration, h, late *obs.Histogram,
	get func(int64), put func(int64, uint64), del func(int64)) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, sc := range scripts {
		wg.Add(1)
		go func(sc []scriptOp) {
			defer wg.Done()
			<-start
			t0 := time.Now()
			var acct punctual
			for i, op := range sc {
				sched := time.Duration(i) * interval
				if d := sched - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				issue := time.Since(t0)
				switch op.kind {
				case scGet:
					get(op.key)
				case scPut:
					put(op.key, MapPayload(op.key))
				case scDelete:
					del(op.key)
				}
				charged, l := acct.charge(sched, issue, time.Since(t0))
				h.Record(charged.Nanoseconds())
				late.Record(l.Nanoseconds())
			}
		}(sc)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

// latencyRowFrom converts a histogram snapshot plus wall-clock
// accounting into the experiment's row (all latencies in µs).
func latencyRowFrom(frontend, dist string, clients int, offered float64,
	ops int, elapsed time.Duration, hs, late obs.HistSnapshot) LatencyRow {
	row := LatencyRow{
		Frontend:    frontend,
		Dist:        dist,
		Clients:     clients,
		OfferedKops: offered,
		MeanUS:      hs.Mean / 1e3,
		P50US:       float64(hs.P50) / 1e3,
		P90US:       float64(hs.P90) / 1e3,
		P99US:       float64(hs.P99) / 1e3,
		P999US:      float64(hs.P999) / 1e3,
		MaxUS:       float64(hs.Max) / 1e3,
		LateP50US:   float64(late.P50) / 1e3,
		LateP99US:   float64(late.P99) / 1e3,
	}
	if elapsed > 0 {
		row.AchievedKops = float64(ops) / elapsed.Seconds() / 1e3
	}
	return row
}

// RunLatencyWorkload measures client-observed operation latency under
// an open-loop arrival process: for every frontend in {Concurrent,
// Sharded(shards)} and every distribution in {uniform, zipf}, the
// engine is bulk-loaded with the base keys, then clients goroutines
// replay the standard 90/5/5 point-op scripts with operations
// scheduled at a fixed aggregate rate of rateKops thousand ops per
// second. Each op's latency is measured from its scheduled arrival
// (not its actual issue time), so queueing delay behind a slow epoch
// or a rebuild is charged to every op it postpones. reps repetitions
// accumulate into one histogram per row.
//
// rateKops <= 0 selects a closed-loop fallback (interval 0): clients
// issue back-to-back and the row reports saturation latency.
func RunLatencyWorkload(w Workload, clients, shards int, rateKops float64, reps int) []LatencyRow {
	w = w.WithDefaults()
	if reps < 1 {
		reps = 1
	}
	if clients < 1 {
		clients = 16
	}
	if shards < 1 {
		shards = 8
	}
	base := w.BaseKeys()
	baseVals := MapPayloads(base)
	opts := pbist.Options{AssumeSorted: true} // base is sorted unique

	var interval time.Duration
	if rateKops > 0 {
		// Aggregate rate split evenly: each client schedules one op
		// every clients/rate seconds.
		interval = time.Duration(float64(clients) / (rateKops * 1e3) * 1e9)
	}

	rows := make([]LatencyRow, 0, 2*len(latencyDists))
	for _, distName := range latencyDists {
		dw := w
		dw.Dist = distName
		dw.Clusters = 0
		scripts := make([][][]scriptOp, reps)
		for rep := 0; rep < reps; rep++ {
			scripts[rep] = concurrentScripts(dw, rep, clients)
		}
		ops := 0
		for _, sc := range scripts[0] {
			ops += len(sc)
		}

		// Combining frontend.
		{
			c := pbist.NewConcurrentFromItems(pbist.ConcurrentOptions{Options: opts}, base, baseVals)
			h, late := obs.NewHistogram(), obs.NewHistogram()
			var total time.Duration
			for rep := 0; rep < reps; rep++ {
				total += replayOpenLoop(scripts[rep], interval, h, late,
					func(k int64) { c.Get(k) },
					func(k int64, v uint64) { c.Put(k, v) },
					func(k int64) { c.Delete(k) })
			}
			c.Close()
			rows = append(rows, latencyRowFrom("concurrent", distName, clients, rateKops,
				ops, total/time.Duration(reps), h.Snapshot(), late.Snapshot()))
		}

		// Sharded frontend, same scripts.
		{
			s := pbist.NewShardedFromItems(pbist.ShardedOptions{
				ConcurrentOptions: pbist.ConcurrentOptions{Options: opts},
				Shards:            shards,
			}, base, baseVals)
			h, late := obs.NewHistogram(), obs.NewHistogram()
			var total time.Duration
			for rep := 0; rep < reps; rep++ {
				total += replayOpenLoop(scripts[rep], interval, h, late,
					func(k int64) { s.Get(k) },
					func(k int64, v uint64) { s.Put(k, v) },
					func(k int64) { s.Delete(k) })
			}
			s.Close()
			rows = append(rows, latencyRowFrom("sharded", distName, clients, rateKops,
				ops, total/time.Duration(reps), h.Snapshot(), late.Snapshot()))
		}
	}
	return rows
}
