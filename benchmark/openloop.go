package main

import (
	"context"
	"sync"
	"syscall"
	"time"
)

// laneRun drives a schedule of operations over a fixed set of
// connections ("lanes"), one goroutine per lane.
//
// Open loop (due != nil): operation i is due at start+due(i) whatever
// the system under test is doing. A lane that falls behind sends late,
// and do receives the instant the operation was *due*, so the wait a
// stall imposes on the requests queued behind it is charged to them
// (no coordinated omission). Operations still unsent at the deadline
// are the backlog.
//
// Closed loop (due == nil): each lane sends its next operation as soon
// as the previous one returns, until the deadline.
type laneRun struct {
	start    time.Time
	deadline time.Time
	lanes    [][]int
	due      func(i int) time.Duration
	do       func(lane, i int, dueAt time.Time)
}

// backlogGrace is how long past the last due time an open-loop phase
// keeps sending: a lane that is a few milliseconds late for its final
// request has no backlog, one that is still behind after this has.
const backlogGrace = time.Second

// laneStats reports how the generator itself behaved.
type laneStats struct {
	lagMS  []float64 // actual send − due, per sent operation (open loop)
	sent   int
	unsent int // operations not started by the deadline
}

func (r laneRun) run(ctx context.Context) laneStats {
	per := make([]laneStats, len(r.lanes))
	var wg sync.WaitGroup
	for lane := range r.lanes {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			st := &per[lane]
			ops := r.lanes[lane]
			for n, i := range ops {
				dueAt := time.Now()
				if r.due != nil {
					dueAt = r.start.Add(r.due(i))
					if !sleepUntil(ctx, dueAt) {
						st.unsent = len(ops) - n
						return
					}
				}
				now := time.Now()
				if ctx.Err() != nil || !now.Before(r.deadline) {
					st.unsent = len(ops) - n
					return
				}
				if r.due != nil {
					st.lagMS = append(st.lagMS, ms(now.Sub(dueAt)))
				} else {
					dueAt = now
				}
				st.sent++
				r.do(lane, i, dueAt)
			}
		}(lane)
	}
	wg.Wait()
	var all laneStats
	for _, st := range per {
		all.lagMS = append(all.lagMS, st.lagMS...)
		all.sent += st.sent
		all.unsent += st.unsent
	}
	return all
}

// Go's timers sleep in the network poller, whose time-out is whole
// milliseconds: a lane that waited for its due time on a timer alone
// sent 0–1.1 ms late (median 0.65 ms), which is most of a 1 ms read
// latency measured from the due time and none of it the program's.
// sleepUntil therefore takes a timer to within coarseLead of t, a
// nanosleep (a high-resolution kernel timer) to within spinLead, and
// spins the rest: a few per cent of one core at 300 requests/s.
const (
	coarseLead = 3 * time.Millisecond
	spinLead   = 150 * time.Microsecond
)

// sleepUntil waits for t and reports false when ctx ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	if d := time.Until(t) - coarseLead; d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return false
		}
	}
	if d := time.Until(t) - spinLead; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // cut short by a signal: the spin below makes up for it
	}
	for time.Until(t) > 0 {
	}
	return ctx.Err() == nil
}

// lanesBy spreads operation indices 0..n-1 over conns lanes by key(i),
// keeping due order inside a lane.
func lanesBy(n, conns int, key func(i int) int) [][]int {
	lanes := make([][]int, conns)
	for i := 0; i < n; i++ {
		l := key(i) % conns
		lanes[l] = append(lanes[l], i)
	}
	return lanes
}
