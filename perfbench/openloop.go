package main

import "time"

// clock is the time source of the load generators; tests substitute a
// fake one to check the open-loop accounting exactly.
type clock interface {
	now() time.Duration // time since the clock's origin
	sleep(d time.Duration)
}

type realClock struct{ origin time.Time }

func (c realClock) now() time.Duration  { return time.Since(c.origin) }
func (realClock) sleep(d time.Duration) { time.Sleep(d) }

// punctual charges open-loop latency without generator overshoot.
//
// A client's i-th call is due at sched_i. A sleeping generator wakes
// late (on a loaded 2-CPU machine, time.Sleep(50µs) overshoots by about
// a millisecond), and charging now − sched_i would bill that overshoot
// to the system. Instead each call is charged its own service time plus
// the backlog a punctual generator would have seen behind the same
// client's earlier calls:
//
//	start'_i = max(sched_i, done'_{i-1})
//	done'_i  = start'_i + service_i
//	charged  = done'_i − sched_i
//
// When the system keeps up, charged is the service time; when calls
// take longer than the interval, the queue a punctual client would
// have built up is charged in full, so the figure stays free of
// coordinated omission. The generator's own lateness — how long after
// max(sched_i, done_{i-1}) the call was actually issued — is reported
// separately and never charged.
type punctual struct {
	doneP time.Duration // done' of the previous call
	done  time.Duration // real completion of the previous call
}

func (a *punctual) charge(sched, issue, done time.Duration) (charged, late time.Duration) {
	start := max(sched, a.doneP)
	a.doneP = start + (done - issue)
	late = max(0, issue-max(sched, a.done))
	a.done = done
	return a.doneP - sched, late
}

// runOpenLoop drives one client open loop: call i is due at
// from + i·interval, for every due time before to. The client sleeps
// until a call is due and issues overdue calls back to back, so a late
// wake-up never thins the offered load. record gets each call's due
// time, charged latency and generator lateness. A system too slow to
// drain the schedule by twice the phase length is cut off there; the
// shortfall shows as gen.achieved_kops below gen.offered_kops.
func runOpenLoop(clk clock, from, to, interval time.Duration, call func(),
	record func(sched, charged, late time.Duration)) int {
	var acct punctual
	n := 0
	deadline := to + (to - from)
	for sched := from; sched < to && clk.now() < deadline; sched = from + time.Duration(n)*interval {
		if d := sched - clk.now(); d > 0 {
			clk.sleep(d)
		}
		issue := clk.now()
		call()
		done := clk.now()
		charged, late := acct.charge(sched, issue, done)
		record(sched, charged, late)
		n++
	}
	return n
}

// runClosedLoop drives one client closed loop until to: each call is
// issued as soon as the previous one returns. record gets each call's
// issue and completion times.
func runClosedLoop(clk clock, to time.Duration, call func(), record func(issue, done time.Duration)) {
	for issue := clk.now(); issue < to; {
		call()
		done := clk.now()
		record(issue, done)
		issue = clk.now()
	}
}
