package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// span is one traced interval: a harness call into a layer. Spans of
// one client call share Call; Parent is the enclosing span (0 at the
// root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Call   int64  `json:"call"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTime aggregates the spans of one name: how many, their total
// duration, and their self time (duration minus the part covered by
// child spans).
type selfTime struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// maxKeptSpans bounds the spans one tracer keeps for the span file;
// self times are aggregated over every span regardless.
const maxKeptSpans = 50_000

// tracer records the spans of one goroutine. Spans nest strictly
// (begin/end pairs), which lets end charge a child's duration to its
// parent on a stack instead of a pass over all spans. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	clk    clock
	idBase int64
	nextID int64
	stack  []frame
	kept   []span
	agg    map[string]*selfTime
}

type frame struct {
	span     span
	childDur int64
}

func newTracer(clk clock, id int) *tracer {
	return &tracer{clk: clk, idBase: int64(id) << 40, agg: map[string]*selfTime{}}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.nextID++
	s := span{ID: t.idBase | t.nextID, Name: name, Start: int64(t.clk.now())}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].span.ID
		s.Call = t.stack[n-1].span.Call
	} else {
		s.Call = s.ID
	}
	t.stack = append(t.stack, frame{span: s})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	f.span.End = int64(t.clk.now())
	dur := f.span.End - f.span.Start
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childDur += dur
	}
	a := t.agg[f.span.Name]
	if a == nil {
		a = &selfTime{Name: f.span.Name}
		t.agg[f.span.Name] = a
	}
	a.Count++
	a.TotalNS += dur
	a.SelfNS += dur - f.childDur
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, f.span)
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	t.begin(name)
	f()
	t.end()
}

// writeSpans writes the stamp, the self-time table and the kept spans
// of every tracer to path as JSON lines.
func writeSpans(path string, stamp any, tracers []*tracer) error {
	merged := map[string]*selfTime{}
	var spans []span
	for _, t := range tracers {
		for name, a := range t.agg {
			m := merged[name]
			if m == nil {
				m = &selfTime{Name: name}
				merged[name] = m
			}
			m.Count += a.Count
			m.TotalNS += a.TotalNS
			m.SelfNS += a.SelfNS
		}
		spans = append(spans, t.kept...)
	}
	var table []selfTime
	for _, a := range merged {
		table = append(table, *a)
	}
	slices.SortFunc(table, func(a, b selfTime) int { return int(b.SelfNS - a.SelfNS) })
	slices.SortFunc(spans, func(a, b span) int { return int(a.Start - b.Start) })

	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"stamp": stamp, "self_times": table, "spans": len(spans)})
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
