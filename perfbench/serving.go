package main

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/pbist"
)

// served is a serving frontend (point: Concurrent, churn: Sharded)
// behind the handful of functions the harness needs.
type served struct {
	call   caller
	names  [numKinds]string
	items  func() ([]int64, []uint64)
	length func() int
	close  func()
	trace  func() []pbist.EpochTrace
}

// traceDepth is the epoch-trace ring the traced run asks for: deep
// enough to hold a window of epochs for the handoff median.
const traceDepth = 4096

func buildServed(p params, in inputs, reg *pbist.Metrics) served {
	copts := pbist.ConcurrentOptions{Options: pbist.Options{Metrics: reg}}
	if reg != nil {
		copts.TraceDepth = traceDepth
	}
	if p.Workload == "point" {
		c := pbist.NewConcurrentFromItems(copts, in.keys, in.vals)
		return served{
			call:   pointCaller(c),
			names:  [numKinds]string{"pbist.Concurrent.Get", "pbist.Concurrent.Put", "pbist.Concurrent.Delete"},
			items:  c.Items,
			length: c.Len,
			close:  c.Close,
			trace:  func() []pbist.EpochTrace { return c.Trace(0) },
		}
	}
	s := pbist.NewShardedFromItems(pbist.ShardedOptions{ConcurrentOptions: copts}, in.keys, in.vals)
	return served{
		call:   batchCaller(s),
		names:  [numKinds]string{"pbist.Sharded.GetBatch", "pbist.Sharded.PutBatch", "pbist.Sharded.DeleteBatch"},
		items:  s.Items,
		length: s.Len,
		close:  s.Close,
		trace:  func() []pbist.EpochTrace { return s.Trace(0) },
	}
}

// servingPass is what one closed-loop plus open-loop pass measured.
type servingPass struct {
	closedCalls int                 // closed loop: calls completed
	closedWall  time.Duration       // closed loop: time to the last completion
	callNS      [numKinds][]float64 // closed loop: call durations by kind
	charged     *windowed           // open loop: charged latency (ns) by due time
	late        []float64           // open loop: generator lateness (ns)
	openCalls   int
	openWall    time.Duration
	keys        [numKinds]int64 // keys sent, both phases
}

// runServingPass drives every client through a closed-loop phase of
// closed and then an open-loop phase of open at p.RateKops.
func runServingPass(p params, cfg *runCfg, clients []*client, closed, open time.Duration) servingPass {
	clk := cfg.clk
	t0 := clk.now()
	closedEnd := t0 + closed
	openEnd := closedEnd + open
	interval := time.Duration(float64(len(clients)) / (p.RateKops * 1e3) * float64(time.Second))

	parts := make([]servingPass, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(out *servingPass, c *client) {
			defer wg.Done()
			out.charged = newWindowed(p.Window)
			runClosedLoop(clk, closedEnd, c.invoke, func(issue, done time.Duration) {
				k := c.o.kind
				out.callNS[k] = append(out.callNS[k], float64(done-issue))
				out.keys[k] += int64(len(c.o.keys))
				out.closedCalls++
				out.closedWall = done - t0
				c.settle()
			})
			out.openCalls = runOpenLoop(clk, closedEnd, openEnd, interval, c.invoke, func(sched, charged, late time.Duration) {
				out.keys[c.o.kind] += int64(len(c.o.keys))
				out.charged.add(sched-closedEnd, float64(charged))
				out.late = append(out.late, float64(late))
				c.settle()
			})
			out.openWall = clk.now() - closedEnd
		}(&parts[i], c)
	}
	wg.Wait()

	total := servingPass{charged: newWindowed(p.Window)}
	for _, pt := range parts {
		total.openCalls += pt.openCalls
		total.openWall = max(total.openWall, pt.openWall)
		total.closedCalls += pt.closedCalls
		total.closedWall = max(total.closedWall, pt.closedWall)
		total.charged.merge(pt.charged)
		total.late = append(total.late, pt.late...)
		for k := range numKinds {
			total.callNS[k] = append(total.callNS[k], pt.callNS[k]...)
			total.keys[k] += pt.keys[k]
		}
	}
	return total
}

// e2e reduces a pass to the end-to-end metrics it defines. Rates are
// totals over the closed-loop phase (work done ÷ time taken), which
// average over the machine's fast and slow spells instead of picking
// one of them the way a median would. Latency quantiles are taken per
// window (p.Window) and reduced to their median, so a window that a GC
// mark or a slow spell of the machine swamps moves one window, not the
// figure; the pooled tail is tail.p999_us.
func (sp *servingPass) e2e(p params, m metricSet) {
	setRates(m, p.CallKeys, sp.callNS)
	m.set("sat_kops", float64(sp.closedCalls)/sp.closedWall.Seconds()/1e3, sp.closedCalls)
	m.set("p50_us", sp.charged.medianOfQuantile(0.50, 100)/1e3, sp.charged.count())
	m.set("p99_us", sp.charged.medianOfQuantile(0.99, 100)/1e3, sp.charged.count())
}

// setRates sets get/put/delete_mkeys_s: keys moved by calls of each
// kind divided by the time spent in them.
func setRates(m metricSet, callKeys int, callNS [numKinds][]float64) {
	for k, name := range []string{"get_mkeys_s", "put_mkeys_s", "delete_mkeys_s"} {
		total := 0.0
		for _, d := range callNS[k] {
			total += d
		}
		m.set(name, float64(callKeys*len(callNS[k]))/total*1e3, len(callNS[k])) // keys per ns → Mkeys/s
	}
}

// servingWorkload runs point or churn.
func servingWorkload(p params, cfg *runCfg, traced bool, m metricSet) (layers metricSet, tracers []*tracer, err error) {
	root := rootRNG(p)
	in := genInputs(p, root.Fork())
	closed := time.Duration(p.Seconds * p.ClosedShare * float64(time.Second))
	open := time.Duration(p.Seconds*float64(time.Second)) - closed

	oracles := func() []oracle {
		ors := make([]oracle, p.Clients)
		for i := range ors {
			ors[i] = newOracle(in, i, p.Clients)
		}
		return ors
	}
	// start gives the structure its clients and runs the fixed warm-up.
	start := func(s served, ors []oracle, tracers []*tracer) []*client {
		cs := make([]*client, p.Clients)
		for i := range cs {
			cs[i] = newClient(cfg, p, in, root.Fork(), i, ors[i], s.call, s.names, tracers[i])
		}
		warmUp(cs, p.WarmCalls)
		return cs
	}
	finish := func(s served, ors []oracle) error {
		ks, vs := s.items()
		return checkItems(ks, vs, ors)
	}

	if !traced {
		ors := oracles()
		heap0 := liveHeap()
		var s served
		setups := make([]float64, p.SetupReps)
		for i := range setups {
			if i > 0 {
				s.close()
			}
			runtime.GC() // each load starts from a collected heap
			t := time.Now()
			s = buildServed(p, in, nil)
			setups[i] = time.Since(t).Seconds()
		}
		m.set("setup_s", median(setups), len(setups))
		cs := start(s, ors, make([]*tracer, p.Clients))
		m.set("bytes_per_key", bytesPerKey(heap0, p.WarmCalls, func(n int) { warmUp(cs, n) }, s.length), memSamples)
		pass := runServingPass(p, cfg, cs, closed, open)
		err = finish(s, ors)
		pass.e2e(p, m)
		s.close()
		return nil, nil, err
	}

	// Traced run: an untraced pass for the generator figures and the
	// overhead baseline, then the same traffic traced and instrumented,
	// then the layer probes.
	layers = metricSet{}
	ors := oracles()
	s := buildServed(p, in, nil)
	cs := start(s, ors, make([]*tracer, p.Clients))
	plain := runServingPass(p, cfg, cs, closed/2, open/2)
	err = finish(s, ors)
	s.close()

	reg := pbist.NewMetrics()
	ors = oracles()
	s = buildServed(p, in, reg)
	tracers = make([]*tracer, p.Clients)
	for i := range tracers {
		tracers[i] = newTracer(cfg.clk, i+1)
	}
	cs = start(s, ors, tracers)
	rt0 := readRuntime()
	tp := runServingPass(p, cfg, cs, closed/2, open/2)
	rt := runtimeDelta(rt0, readRuntime())
	if ferr := finish(s, ors); err == nil {
		err = ferr
	}

	allCalls := slices.Concat(tp.callNS[:]...)
	plainCalls := slices.Concat(plain.callNS[:]...)
	layers.set("trace.overhead", mean(allCalls)/mean(plainCalls), len(allCalls))
	layers.set("combine.service_p50_ns", quantile(allCalls, 0.50), len(allCalls))
	layers.set("combine.service_p99_ns", quantile(allCalls, 0.99), len(allCalls))
	var walls []float64
	peakDebt := 0
	for _, t := range s.trace() {
		walls = append(walls, float64(t.Wall))
		peakDebt = max(peakDebt, t.RebuildDebt)
	}
	layers.set("combine.handoff_ns", quantile(allCalls, 0.50)-median(walls), len(walls))
	layers.set("core.rebuild.peak_debt_keys", float64(peakDebt), len(walls))
	keys := tp.keys[opGet] + tp.keys[opPut] + tp.keys[opDelete]
	registryLayers(layers, reg.Snapshot(), float64(tp.keys[opPut]+tp.keys[opDelete]))
	runtimeLayers(layers, rt, float64(keys))
	plain.generatorLayers(p, layers)
	s.close()

	probeLayers(p, in, cfg, tracers[0], layers)
	return layers, tracers, err
}

// warmUp runs calls closed-loop calls per client, checked but not
// measured: a fixed amount of work before anything is timed, after
// which bytes_per_key is taken.
func warmUp(clients []*client, calls int) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range calls {
				c.invoke()
				c.settle()
			}
		}()
	}
	wg.Wait()
}

// generatorLayers reports how well the open-loop generator kept its
// schedule, and the p999 that is too noisy to gate on.
func (sp *servingPass) generatorLayers(p params, m metricSet) {
	m.set("gen.offered_kops", p.RateKops, 1)
	m.set("gen.achieved_kops", float64(sp.openCalls)/sp.openWall.Seconds()/1e3, sp.openCalls)
	m.set("gen.late_p50_us", quantile(sp.late, 0.50)/1e3, len(sp.late))
	m.set("gen.late_p99_us", quantile(sp.late, 0.99)/1e3, len(sp.late))
	all := sp.charged.all()
	m.set("tail.p999_us", quantile(all, 0.999)/1e3, len(all))
}
