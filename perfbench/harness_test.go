package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyParams shrinks a workload so a whole run takes a fraction of a
// second while keeping its shape (mix, call kinds, frontend).
func tinyParams(t *testing.T, name string, seed uint64) params {
	t.Helper()
	p, err := workloadParams(name, seed, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p.Window = 50 * time.Millisecond
	p.SetupReps = 2
	p.ProbeRounds = 4
	p.LadderOps = 500
	p.WarmCalls = 100
	switch name {
	case "batch":
		p.WarmCalls = 1
		p.Universe = 1 << 14
		p.CallKeys = 1000
		p.ProbeKeys = 1000
	case "point":
		p.Universe = 1 << 14
	case "churn":
		p.Clusters = 8
		p.ClusterWidth = 256
	}
	return p
}

// encodeScript renders the first n calls of every client's script.
func encodeScript(p params, n int) []byte {
	root := rootRNG(p)
	in := genInputs(p, root.Fork())
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(in.keys)
	for c := range p.Clients {
		sc := newScript(p, in, root.Fork(), c)
		var o op
		for range n {
			sc.next(&o)
			enc.Encode([]any{o.kind, o.keys, o.vals})
		}
	}
	if p.Workload == "batch" {
		enc.Encode(freshBatch(root.Fork(), p))
	}
	return buf.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range allWorkloads {
		a := encodeScript(tinyParams(t, name, 7), 200)
		b := encodeScript(tinyParams(t, name, 7), 200)
		c := encodeScript(tinyParams(t, name, 8), 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different inputs", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave identical inputs", name)
		}
	}
}

func TestClientsOwnDisjointKeys(t *testing.T) {
	for _, name := range []string{"point", "churn"} {
		p := tinyParams(t, name, 3)
		root := rootRNG(p)
		in := genInputs(p, root.Fork())
		for c := range p.Clients {
			sc := newScript(p, in, root.Fork(), c)
			var o op
			for range 500 {
				sc.next(&o)
				for _, k := range o.keys {
					if int(k%int64(p.Clients)) != c {
						t.Fatalf("%s: client %d drew key %d owned by another client", name, c, k)
					}
				}
			}
		}
	}
}

// fakeClock advances only when the code under test sleeps (by the
// requested time plus a fixed overshoot) or when a fake call runs.
type fakeClock struct {
	t         time.Duration
	overshoot time.Duration
}

func (c *fakeClock) now() time.Duration    { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t += d + c.overshoot }

func TestOpenLoopChargesBacklogNotOvershoot(t *testing.T) {
	const interval = 10 * time.Microsecond
	cases := []struct {
		name    string
		service time.Duration
		want    func(i int) time.Duration
	}{
		// The system keeps up: every call is charged its service time
		// alone, although each sleep overshoots by a millisecond.
		{"keeps up", 2 * time.Microsecond, func(int) time.Duration { return 2 * time.Microsecond }},
		// The system is slower than the schedule: a punctual client's
		// queue grows by 5µs per call and is charged in full.
		{"falls behind", 15 * time.Microsecond, func(i int) time.Duration {
			return 15*time.Microsecond + time.Duration(i)*5*time.Microsecond
		}},
	}
	for _, tc := range cases {
		clk := &fakeClock{overshoot: time.Millisecond}
		var charged, late []time.Duration
		n := runOpenLoop(clk, 0, 100*interval, interval, func() { clk.t += tc.service },
			func(_, c, l time.Duration) {
				charged = append(charged, c)
				late = append(late, l)
			})
		if n != 100 {
			t.Fatalf("%s: issued %d calls, want 100", tc.name, n)
		}
		for i, c := range charged {
			if c != tc.want(i) {
				t.Fatalf("%s: call %d charged %v, want %v", tc.name, i, c, tc.want(i))
			}
		}
		if tc.service < interval && slices.Max(late) < time.Millisecond {
			t.Errorf("%s: overshoot not reported as lateness: max late %v", tc.name, slices.Max(late))
		}
	}
}

func TestOracleCatchesWrongAnswers(t *testing.T) {
	in := inputs{keys: []int64{2, 4, 6}, vals: []uint64{value(2, 0), value(4, 0), value(6, 0)}}
	or := newOracle(in, 0, 1)
	get := &op{kind: opGet, keys: []int64{4, 5}}
	if !or.check(get, []uint64{value(4, 0), 0}, []bool{true, false}, 0) {
		t.Fatal("right get answer rejected")
	}
	if or.check(get, []uint64{value(4, 1), 0}, []bool{true, false}, 0) {
		t.Error("stale value accepted")
	}
	if or.check(get, []uint64{value(4, 0), 0}, []bool{true, true}, 0) {
		t.Error("phantom key accepted")
	}
	put := &op{kind: opPut, keys: []int64{6, 8, 8}, vals: []uint64{1, 2, 3}}
	if or.check(put, nil, nil, 2) {
		t.Error("put counting a duplicate twice accepted")
	}
	del := &op{kind: opDelete, keys: []int64{8, 9}}
	if !or.check(del, nil, nil, 1) {
		t.Error("right delete count rejected")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the harness must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if p, err := workloadParams(w.Name, 1, 1); err == nil && p.RateKops > 0 {
			rate := strconv.FormatFloat(p.RateKops, 'g', -1, 64)
			if !strings.Contains(w.Why, " "+rate+"k ") {
				t.Errorf("workload %s: why %q does not state the open-loop rate %sk calls/s", w.Name, w.Why, rate)
			}
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", workloadNames, names)
	}
	check := func(kind string, defs []metricDef, want []struct{ Name, Unit string }) {
		if len(defs) != len(want) {
			t.Errorf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(defs), len(want))
		}
		for i := range min(len(defs), len(want)) {
			if defs[i].name != want[i].Name || defs[i].unit != want[i].Unit {
				t.Errorf("%s %d: harness %s [%s], BENCHMARK.json %s [%s]", kind, i, defs[i].name, defs[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

// runTiny executes a tiny run and returns its exit code and the parsed
// result line.
func runTiny(t *testing.T, p params, traced bool, injectAt int64) (int, map[string]any) {
	t.Helper()
	var out, errs bytes.Buffer
	code := execute(p, traced, t.TempDir(), injectAt, &out, &errs)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", p.Workload, err, out.String(), errs.String())
	}
	return code, res
}

func TestRunsPrintEveryMetricAndPass(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, name := range allWorkloads {
		for _, traced := range []bool{false, true} {
			code, res := runTiny(t, tinyParams(t, name, 1), traced, 0)
			if code != 0 || res["correct"] != true || res["failed"].(float64) != 0 {
				t.Errorf("%s traced=%v: exit %d, result %v", name, traced, code, res)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			metrics := res["metrics"].(map[string]any)
			if len(metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json lists %d", name, traced, len(metrics), len(want))
			}
			for _, d := range want {
				m, ok := metrics[d.Name].(map[string]any)
				if !ok || m["unit"] != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit differs: %v", name, traced, d.Name, metrics[d.Name])
				}
			}
		}
	}
}

func TestInjectedWrongAnswerFailsTheRun(t *testing.T) {
	for _, name := range allWorkloads {
		code, res := runTiny(t, tinyParams(t, name, 1), false, 3)
		if code == 0 || res["correct"] != false || res["failed"].(float64) < 1 {
			t.Errorf("%s: injected wrong answer not caught: exit %d, result %v", name, code, res)
		}
	}
}
