package main

import (
	"time"
)

// schedule is an open-loop send plan: item i is due at
// start + i×interval whatever happened to earlier items. A stalled
// sink delays later sends but never their due times, so latency
// measured from the due time charges a stall to every item queued
// behind it.
type schedule struct {
	start    time.Time
	interval time.Duration
	// now and waitUntil are the clock; tests substitute a fake one.
	now       func() time.Time
	waitUntil func(time.Time)
}

// realClock returns a schedule on the wall clock. It sleeps until
// shortly before each due time and spins the rest: Go's timers are
// about 1 ms coarse when the process is idle, which would otherwise
// add the generator's own lateness to every round. The spin is capped
// at a twentieth of the interval, so it costs at most 5% of one core.
func realClock(start time.Time, interval time.Duration) schedule {
	spin := min(time.Millisecond, interval/20)
	return schedule{start: start, interval: interval, now: time.Now,
		waitUntil: func(t time.Time) {
			if d := time.Until(t) - spin; d > 0 {
				time.Sleep(d)
			}
			for time.Now().Before(t) {
			}
		}}
}

// due returns item i's due time.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// run sends items 0, 1, … in order until the next item would be due
// at or after until, waiting for each due time and never skipping an
// item. lag receives each item's due time and how late its send
// began. It returns the number of items sent, or the first send error.
func (s schedule) run(until time.Time, send func(i int, due time.Time) error, lag func(due time.Time, late time.Duration)) (int, error) {
	for i := 0; ; i++ {
		due := s.due(i)
		if !due.Before(until) {
			return i, nil
		}
		if due.After(s.now()) {
			s.waitUntil(due)
		}
		lag(due, s.now().Sub(due))
		if err := send(i, due); err != nil {
			return i, err
		}
	}
}
