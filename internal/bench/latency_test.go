package bench

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestPunctualCharge replays a synthetic schedule through the
// open-loop accounting: operations due every 10 units, with sleep
// overshoot, a slow operation that builds a backlog, and overdue
// operations issued back to back.
func TestPunctualCharge(t *testing.T) {
	type op struct{ sched, issue, done, charged, late time.Duration }
	ops := []op{
		// On time, 3 units of service.
		{sched: 0, issue: 0, done: 3, charged: 3, late: 0},
		// Woke 4 units late: the overshoot is reported, not charged.
		{sched: 10, issue: 14, done: 17, charged: 3, late: 4},
		// A 25-unit stall: charged in full.
		{sched: 20, issue: 21, done: 46, charged: 25, late: 1},
		// Due at 30, overdue behind the stall: a punctual client would
		// have started it at done'=45, so it is charged 15 of backlog
		// plus 2 of service, and its issue right at the previous
		// completion is not late.
		{sched: 30, issue: 46, done: 48, charged: 17, late: 0},
		// Due at 40, still behind (done'=47): 7 of backlog plus 2.
		{sched: 40, issue: 48, done: 50, charged: 9, late: 0},
		// Due at 50, the backlog has drained (done'=49): service only,
		// and the 2-unit wake-up delay is lateness.
		{sched: 50, issue: 52, done: 53, charged: 1, late: 2},
	}
	var acct punctual
	for i, o := range ops {
		charged, late := acct.charge(o.sched, o.issue, o.done)
		if charged != o.charged || late != o.late {
			t.Fatalf("op %d: charged %v late %v, want %v and %v", i, charged, late, o.charged, o.late)
		}
	}
}

// TestReplayOpenLoopChargesService checks that a replay of fast
// operations at a leisurely rate charges about their service time,
// not the sleep overshoot between them.
func TestReplayOpenLoopChargesService(t *testing.T) {
	scripts := [][]scriptOp{make([]scriptOp, 20)}
	h, late := obs.NewHistogram(), obs.NewHistogram()
	replayOpenLoop(scripts, 2*time.Millisecond, h, late, func(int64) {}, nil, nil)
	if got := h.Snapshot().Count; got != 20 {
		t.Fatalf("recorded %d ops, want 20", got)
	}
	if p50 := h.Snapshot().P50; p50 > int64(time.Millisecond) {
		t.Fatalf("p50 %v for no-op calls: overshoot is being charged", time.Duration(p50))
	}
}
