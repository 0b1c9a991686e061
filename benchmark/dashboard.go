package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// dashboard_read sizes. Every round runs on a freshly booted child:
// every URL fetched once, phase A open loop at readRate requests/s (one
// in writeEvery is the POST trickle) for readAShare of the round, phase
// B closed loop on one connection over a pool of refresh cycles sized
// for readPoolRate requests/s.
const (
	readRate     = 300.0
	readAShare   = 0.4
	readPoolRate = 2400.0
)

// writeCounts tracks, per scope (a pump, or the whole fleet), how many
// trickle writes were sent and how many were acknowledged. A read
// during which sent == acked (at send) == sent (at receive) overlapped
// no write, so what it saw reflects exactly `acked` writes.
type writeCounts struct {
	sent  []atomic.Int64 // index pumps = fleet-wide
	acked []atomic.Int64
}

func newWriteCounts(pumps int) *writeCounts {
	return &writeCounts{sent: make([]atomic.Int64, pumps+1), acked: make([]atomic.Int64, pumps+1)}
}

// etagSeen is the last validator a URL returned (empty on the routes
// that send none), with the number of
// acknowledged writes in its scope when it was fetched; clean means no
// write overlapped the fetch, so writes is exact.
type etagSeen struct {
	etag   string
	writes int64
	clean  bool
}

// readTally is what one lane observed.
type readTally struct {
	tally
	lat       [readKinds][]timed // at = the due instant on the run's clock
	status304 int
	verified  int // 304s whose freshness could be checked
}

// dashboard drives the read schedule against one child.
type dashboard struct {
	plan    *readPlan
	initial map[int]int
	counts  *writeCounts
	host    *hostClock
	mu      sync.Mutex
	etags   map[string]etagSeen
	conns   []*conn
	tallies []*readTally
}

func (d *dashboard) scope(op readOp) int {
	if op.Kind == readFleet {
		return len(d.counts.sent) - 1
	}
	return op.Pump
}

// do issues operation i, checks the answer, and records due → body
// drained under the operation's kind.
func (d *dashboard) do(lane, i int, dueAt time.Time) {
	t, c, op := d.tallies[lane], d.conns[lane], d.plan.Ops[i]
	t.attempted++
	if op.Kind == readWrite {
		d.write(t, c, op)
		return
	}
	path := op.path()
	d.mu.Lock()
	last := d.etags[path]
	d.mu.Unlock()
	ifNoneMatch := ""
	if op.Conditional {
		ifNoneMatch = last.etag
	}
	sc := d.scope(op)
	ackedAtSend := d.counts.acked[sc].Load()
	status, body, etag, err := c.roundTrip(http.MethodGet, path, nil, ifNoneMatch)
	lat := timed{d.host.since(dueAt), ms(time.Since(dueAt))}
	clean := d.counts.sent[sc].Load() == ackedAtSend
	switch {
	case err != nil:
		t.fail("GET %s: %v", path, err)
		return
	case status == http.StatusNotModified:
		t.status304++
		if ifNoneMatch == "" {
			t.fail("GET %s: 304 without If-None-Match", path)
			return
		}
		// A 304 says the generation did not change since the validator
		// was issued; when both fetches overlapped no write we know
		// whether that is true.
		if last.clean && clean {
			t.verified++
			if last.writes != ackedAtSend {
				t.fail("GET %s: 304 although %d writes were acknowledged since the ETag was issued", path, ackedAtSend-last.writes)
				return
			}
		}
	case status != http.StatusOK:
		t.fail("GET %s: status %d: %.120s", path, status, body)
		return
	default:
		if !json.Valid(body) {
			t.fail("GET %s: body is not JSON", path)
			return
		}
		if op.Kind == readTrend {
			var tr trendJSON
			_ = json.Unmarshal(body, &tr) // valid JSON, checked above
			// Exact when no write overlapped; otherwise the in-flight
			// write may or may not be in.
			want := d.initial[op.Pump] + int(ackedAtSend)
			if tr.PumpID != op.Pump || tr.TotalPoints < want || (clean && tr.TotalPoints != want) {
				t.fail("GET %s: pump %d with %d points, want pump %d with %d", path, tr.PumpID, tr.TotalPoints, op.Pump, want)
				return
			}
		}
		d.mu.Lock()
		d.etags[path] = etagSeen{etag: etag, writes: ackedAtSend, clean: clean}
		d.mu.Unlock()
	}
	t.lat[op.Kind] = append(t.lat[op.Kind], lat)
}

func (d *dashboard) write(t *readTally, c *conn, op readOp) {
	w := d.plan.Writes[op.Write]
	fleet := len(d.counts.sent) - 1
	d.counts.sent[w.Pump].Add(1)
	d.counts.sent[fleet].Add(1)
	if accepted, _ := t.post(c, w, d.plan.Bodies[w.Body]); !accepted {
		// The books stay unbalanced for this scope (sent > acked), so no
		// later read of it is treated as exactly checkable.
		return
	}
	d.counts.acked[w.Pump].Add(1)
	d.counts.acked[fleet].Add(1)
}

// readSamples is what the rounds of one run measured, on one clock.
type readSamples struct {
	reads   [readKinds][]timed // phase A, by kind: due → body drained
	refresh []timed            // phase B: write sent → last of its five views drained
	rebuilt []timed            // phase B: send → body drained of the fleet view straight after a write
	burstAt []float64          // phase B: the instant every read completed
	lagMS   []float64
	unsent  int
	n304    int
	checked int // 304s whose freshness could be verified
}

// dashboardRound drives the whole schedule against one freshly booted
// child and runs the output checks on it.
func dashboardRound(e *env, res *result, c *corpus, plan *readPlan, ch *child, lenA, lenB time.Duration, out *readSamples) error {
	admin := newConn(ch.base)
	defer admin.close()
	d := &dashboard{
		plan: plan, initial: c.perPump(), counts: newWriteCounts(c.sizes.Pumps), host: e.host,
		etags: map[string]etagSeen{}, conns: make([]*conn, e.conns), tallies: make([]*readTally, e.conns),
	}
	for i := range d.conns {
		d.conns[i] = newConn(ch.base)
		defer d.conns[i].close()
		d.tallies[i] = &readTally{tally: newTally()}
	}
	// Fill every cache the mix can touch before timing, over the lanes'
	// own connections: a dashboard that has been open for a while is the
	// state being measured.
	for i, op := range plan.Ops {
		if _, seen := d.etags[op.path()]; op.Kind != readWrite && !seen {
			p := op.path()
			status, body, etag, err := d.conns[i%e.conns].roundTrip(http.MethodGet, p, nil, "")
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("warm-up GET %s: status %d, %v: %.120s", p, status, err, body)
			}
			d.etags[p] = etagSeen{etag: etag, clean: true}
		}
	}
	var before map[string]float64
	if e.trace {
		var err error
		if before, err = scrapeChild(admin.client, ch.base); err != nil {
			return err
		}
	}

	resumeGC := pauseGC()
	startA := time.Now()
	statsA := laneRun{
		start: startA, deadline: startA.Add(lenA + backlogGrace),
		lanes: lanesBy(plan.NA, e.conns, func(i int) int { return i }),
		due:   func(i int) time.Duration { return time.Duration(float64(i) / plan.Rate * float64(time.Second)) },
		do:    d.do,
	}.run(e.ctx)
	for _, t := range d.tallies {
		for k := range t.lat {
			out.reads[k] = append(out.reads[k], t.lat[k]...)
			t.lat[k] = nil
		}
	}

	// Phase B: refresh cycles (a write, then the five views it
	// invalidated) as fast as one connection goes; see ingestRound for
	// why one.
	startB := time.Now()
	var cycleStart time.Time
	laneRun{
		start: startB, deadline: startB.Add(lenB),
		lanes: lanesBy(len(plan.Ops)-plan.NA, 1, func(int) int { return 0 }),
		do: func(_, i int, at time.Time) {
			op, failed, fleet := plan.Ops[plan.NA+i], d.tallies[0].failed, len(d.tallies[0].lat[readFleet])
			if op.Kind == readWrite {
				cycleStart = at
			}
			d.do(0, plan.NA+i, at)
			if op.Kind == readWrite || d.tallies[0].failed != failed {
				return
			}
			now := e.host.since(time.Now())
			out.burstAt = append(out.burstAt, now)
			// The fleet view straight after the write pays for the rebuild.
			if op.Kind == readFleet && plan.Ops[plan.NA+i-1].Kind == readWrite {
				out.rebuilt = append(out.rebuilt, d.tallies[0].lat[readFleet][fleet])
			}
			if i%refreshOps == refreshOps-1 {
				out.refresh = append(out.refresh, timed{now, ms(time.Since(cycleStart))})
			}
		},
	}.run(e.ctx)
	resumeGC()
	if err := e.ctx.Err(); err != nil {
		return err
	}

	lanes := make([]*tally, len(d.tallies))
	for i, t := range d.tallies {
		out.n304 += t.status304
		out.checked += t.verified
		lanes[i] = &t.tally
	}
	out.lagMS = append(out.lagMS, statsA.lagMS...)
	out.unsent += statsA.unsent
	if e.trace {
		after, err := scrapeChild(admin.client, ch.base)
		if err != nil {
			return err
		}
		storeCounts(res, before, after)
	}
	acked := merge(res, lanes)
	backlog(res, statsA.unsent)
	checkStored(res, admin, d.initial, acked)
	return nil
}

func runDashboardRead(e *env) (*result, error) {
	res := newResult()
	c, err := generateCorpus(servingFleet, e.seed)
	if err != nil {
		return nil, err
	}
	rounds := e.setups()
	round := e.window() / time.Duration(rounds)
	lenA := time.Duration(float64(round) * readAShare)
	lenB := round - lenA
	plan := planReads(c, e.seed, readRate, int(readRate*lenA.Seconds()), int(readPoolRate*lenB.Seconds()))
	res.Notes["plan_sha256"] = planHash(plan.Ops, plan.Bodies)
	res.Notes["rounds"] = fmt.Sprintf("%d, each on a freshly booted child replaying the same schedule", rounds)
	res.Notes["phase_a"] = fmt.Sprintf("open loop, %g requests/s (1 in %d a POST) for %v on %d connections", readRate, writeEvery, lenA, e.conns)
	res.Notes["phase_b"] = fmt.Sprintf("closed loop, 1 connection for %v: a write, then the five views it invalidated", lenB)

	var got readSamples
	setups, rss, err := servingRounds(e, c, []string{"-fsync", "always"}, func(k int, ch *child) error {
		return dashboardRound(e, res, c, plan, ch, lenA, lenB, &got)
	})
	if err != nil {
		return nil, err
	}

	var all []timed
	for k := readTrend; k < readWrite; k++ {
		all = append(all, got.reads[k]...)
		res.Notes["n_"+readKindNames[k]] = len(got.reads[k])
	}
	res.Notes["n_304"] = got.n304
	res.Notes["n_304_verified"] = got.checked
	res.Notes["read_ms"] = ladderNote(values(all))
	res.Notes["refresh_ms"] = ladderNote(values(got.refresh))
	res.Notes["rebuilt_ms"] = ladderNote(values(got.rebuilt))
	res.Notes["fleet_ms"] = ladderNote(values(got.reads[readFleet]))
	res.Notes["generator_lag_ms"] = ladderNote(got.lagMS)
	res.Notes["host"] = e.host.note()
	res.EndToEnd["setup_s"] = median(unstretched(e.host, setups)) / 1000
	res.EndToEnd["op_ms"] = quiet(e.host, got.refresh, viewSlice, statMedian)
	res.EndToEnd["view_ms"] = quiet(e.host, got.rebuilt, viewSlice, statMedian)
	res.EndToEnd["capacity_per_s"] = quietRate(e.host, got.burstAt, rateSlice)
	res.EndToEnd["peak_rss_mb"] = median(rss)
	res.Samples["setup_s"] = len(setups)
	res.Samples["op_ms"] = len(got.refresh)
	res.Samples["view_ms"] = len(got.rebuilt)
	res.Samples["capacity_per_s"] = len(got.burstAt)
	res.Samples["peak_rss_mb"] = len(rss)

	if e.trace {
		fleetTail, _ := tail(values(got.reads[readFleet]))
		readP50 := quiet(e.host, all, medianSlice, statMedian)
		res.PerLayer["dashboard.read_p50_ms"] = readP50
		res.PerLayer["op_tail_ms"] = quiet(e.host, all, tailSlice, statTail)
		res.PerLayer["dashboard.read_p99_ms"] = p99(values(all))
		res.PerLayer["dashboard.fleet_p90_ms"] = fleetTail
		res.PerLayer["generator.lag_p99_ms"] = p99(got.lagMS)
		res.PerLayer["generator.backlog_end"] = float64(got.unsent)
		res.Samples["dashboard.read_p50_ms"] = len(all)
		res.Samples["op_tail_ms"] = len(all)
		res.Samples["generator.lag_p99_ms"] = len(got.lagMS)
		if err := traceDashboard(e, res, c, plan, readP50); err != nil {
			return nil, err
		}
	}
	return res, nil
}
