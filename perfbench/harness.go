package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
)

// runCfg is the state shared by every client of one run: the clock,
// the tally of attempted and failed calls, and the optional injected
// wrong answer that proves the oracle is live.
type runCfg struct {
	clk       clock
	log       io.Writer
	injectAt  int64 // corrupt the answer of this checked call (1-based); 0 = never
	checks    atomic.Int64
	attempted atomic.Int64
	failed    atomic.Int64
	errOnce   sync.Once
}

func newRunCfg(log io.Writer, injectAt int64) *runCfg {
	return &runCfg{clk: realClock{origin: time.Now()}, log: log, injectAt: injectAt}
}

// verify counts one attempted call and checks its answer (or err)
// against the oracle.
func (cfg *runCfg) verify(or oracle, o *op, vals []uint64, found []bool, count int, err error) {
	cfg.attempted.Add(1)
	if cfg.injectAt > 0 && cfg.checks.Add(1) == cfg.injectAt {
		count++
		if o.kind == opGet {
			found[0] = !found[0]
		}
	}
	if err == nil && !or.check(o, vals, found, count) {
		err = errors.New("wrong answer")
	}
	if err != nil {
		cfg.fail(fmt.Errorf("%s of %d keys (first %d): %w", kindNames[o.kind], len(o.keys), o.keys[0], err))
	}
}

func (cfg *runCfg) fail(err error) {
	cfg.failed.Add(1)
	cfg.errOnce.Do(func() { fmt.Fprintf(cfg.log, "perfbench: first failure: %v\n", err) })
}

// client is one load-generating goroutine's state: its script, its
// oracle, its reusable buffers and its tracer (nil when untraced).
type client struct {
	cfg   *runCfg
	sc    *script
	or    oracle
	tr    *tracer
	call  caller
	names [numKinds]string // span name of each call kind
	o     op
	vals  []uint64
	found []bool
	count int
	err   error
}

func newClient(cfg *runCfg, p params, in inputs, r *dist.RNG, id int, or oracle, call caller, names [numKinds]string, tr *tracer) *client {
	c := &client{
		cfg: cfg, sc: newScript(p, in, r, id), or: or,
		tr: tr, call: call, names: names,
		vals: make([]uint64, p.CallKeys), found: make([]bool, p.CallKeys),
	}
	c.sc.next(&c.o)
	return c
}

// invoke is the timed part of a call: the library call alone.
func (c *client) invoke() {
	c.tr.begin("client.call")
	c.tr.begin(c.names[c.o.kind])
	c.count, c.err = safeCall(c.call, &c.o, c.vals, c.found)
	c.tr.end()
}

// settle checks the answer of the call just made and draws the next
// one; it runs outside the timed interval.
func (c *client) settle() {
	c.tr.begin("oracle.check")
	c.cfg.verify(c.or, &c.o, c.vals, c.found, c.count, c.err)
	c.tr.end()
	c.tr.end() // client.call
	c.tr.begin("gen.next")
	clear(c.found)
	c.sc.next(&c.o)
	c.tr.end()
}
