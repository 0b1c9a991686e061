package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"vibepm/internal/store"
)

// ingest_steady sizes. Every round runs on a freshly booted child: a
// short closed-loop warm-up, phase A open loop at ingestRate POST/s for
// ingestAShare of the round, phase B closed loop on one connection over
// a pool sized for burstPoolRate POST/s, above what one connection
// reaches.
const (
	ingestRate      = 200.0
	ingestAShare    = 0.7
	ingestWarmOps   = 48
	burstPoolRate   = 800.0
	checkpointsIn   = 5 // traced run: -checkpoint-interval = window / checkpointsIn
	ingestTrendPath = "/api/v1/pumps/%d/trend?points=48"
)

// ingestTally is what one lane observed; lanes own disjoint pumps, so
// nothing here is shared between goroutines.
type ingestTally struct {
	tally
	ack     []timed
	visible []timed
}

// post sends one write and checks the status: 201 for a new key, 409
// for an exact re-send. It reports whether the write was newly accepted.
func (t *tally) post(c *conn, op writeOp, body []byte) (accepted, ok bool) {
	status, resp, _, err := c.roundTrip(http.MethodPost, "/api/v1/measurements", body, "")
	want := http.StatusCreated
	if op.Kind == writeResend {
		want = http.StatusConflict
	}
	switch {
	case err != nil:
		t.fail("POST pump %d day %v: %v", op.Pump, op.Day, err)
		return false, false
	case status != want:
		t.fail("POST pump %d day %v: status %d, want %d: %.120s", op.Pump, op.Day, status, want, resp)
		// A 201 we did not expect is still in the store; keep the books right.
		if status == http.StatusCreated {
			t.accepted[op.Pump] = append(t.accepted[op.Pump], op.Day)
		}
		return false, false
	}
	if status == http.StatusCreated {
		t.accepted[op.Pump] = append(t.accepted[op.Pump], op.Day)
		return true, true
	}
	return false, true
}

// ingestSamples is what the rounds of one run measured, on one clock.
type ingestSamples struct {
	ack, visible []timed
	burstAt      []float64 // phase B: the instant of every ack
	lagMS        []float64
	unsent       int
}

// ingestRound drives the whole schedule against one freshly booted
// child and runs the output checks on it; the comparison with a
// from-scratch engine costs a fit and is made when deep is set.
func ingestRound(e *env, res *result, c *corpus, plan *ingestPlan, ch *child, lenA, lenB time.Duration, out *ingestSamples, deep bool) error {
	admin := newConn(ch.base)
	defer admin.close()
	// Learn the lifetime models now, on the corpus alone, so that the
	// RUL the child serves later does not depend on when the first
	// analysis request happened to arrive.
	var fleet json.RawMessage
	if err := admin.getJSON("/api/v1/analysis/fleet", &fleet); err != nil {
		return err
	}
	var before map[string]float64
	if e.trace {
		var err error
		if before, err = scrapeChild(admin.client, ch.base); err != nil {
			return err
		}
	}

	initial := c.perPump()
	conns := make([]*conn, e.conns)
	tallies := make([]*ingestTally, e.conns)
	for i := range conns {
		conns[i] = newConn(ch.base)
		defer conns[i].close()
		tallies[i] = &ingestTally{tally: newTally()}
	}
	// A pump always belongs to the same lane, so its writes and reads
	// are ordered whichever phase sends them.
	laneOf := func(i int) int { return plan.Ops[i].Pump % e.conns }
	// writeThenRead is one operation of the warm-up and of phase A: POST,
	// then GET the pump's trend on the same connection; it must count
	// the new point.
	writeThenRead := func(i int, dueAt time.Time, measured bool) {
		t, cn, op := tallies[laneOf(i)], conns[laneOf(i)], plan.Ops[i]
		t.attempted++
		accepted, ok := t.post(cn, op, plan.body(i))
		if !ok {
			return
		}
		ack := time.Since(dueAt)
		var tr trendJSON
		if err := cn.getJSON(fmt.Sprintf(ingestTrendPath, op.Pump), &tr); err != nil {
			t.fail("trend after POST: %v", err)
			return
		}
		if want := initial[op.Pump] + len(t.accepted[op.Pump]); tr.TotalPoints != want {
			t.fail("pump %d: trend shows %d points after the ack, want %d", op.Pump, tr.TotalPoints, want)
			return
		}
		if accepted && measured {
			at := e.host.since(dueAt)
			t.ack = append(t.ack, timed{at, ms(ack)})
			t.visible = append(t.visible, timed{at, ms(time.Since(dueAt))})
		}
	}

	// Warm-up, untimed: connections open, the child's code paths and
	// heap past their first use.
	warm := time.Now()
	laneRun{
		start: warm, deadline: warm.Add(readyTimeout),
		lanes: lanesBy(plan.NWarm, e.conns, laneOf),
		do:    func(_, i int, at time.Time) { writeThenRead(i, at, false) },
	}.run(e.ctx)

	resumeGC := pauseGC()
	startA := time.Now()
	statsA := laneRun{
		start: startA, deadline: startA.Add(lenA + backlogGrace),
		lanes: lanesBy(plan.NA, e.conns, func(i int) int { return laneOf(plan.NWarm + i) }),
		due:   func(i int) time.Duration { return time.Duration(float64(i) / plan.Rate * float64(time.Second)) },
		do:    func(_, i int, dueAt time.Time) { writeThenRead(plan.NWarm+i, dueAt, true) },
	}.run(e.ctx)

	// Phase B: POST as fast as acks return, on one connection. Two
	// measure how their requests happen to fall into step on the store's
	// lock and fsync (456–863 POST/s from one second to the next) and
	// leave no core to absorb a neighbour's burst.
	startB := time.Now()
	pool := plan.NWarm + plan.NA
	laneRun{
		start: startB, deadline: startB.Add(lenB),
		lanes: lanesBy(len(plan.Ops)-pool, 1, func(int) int { return 0 }),
		do: func(_, i int, _ time.Time) {
			t := tallies[laneOf(pool+i)]
			t.attempted++
			if accepted, _ := t.post(conns[0], plan.Ops[pool+i], plan.body(pool+i)); accepted {
				out.burstAt = append(out.burstAt, e.host.since(time.Now()))
			}
		},
	}.run(e.ctx)
	resumeGC()
	if err := e.ctx.Err(); err != nil {
		return err
	}

	all := make([]*tally, len(tallies))
	for i, t := range tallies {
		out.ack = append(out.ack, t.ack...)
		out.visible = append(out.visible, t.visible...)
		all[i] = &t.tally
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

	// Output checks.
	acked := merge(res, all)
	backlog(res, statsA.unsent)
	checkStored(res, admin, initial, acked)
	if !deep {
		return nil
	}
	ref, err := newReference(e.work+"/data", nil)
	if err != nil {
		return err
	}
	pumps := checkedPumps(e.seed, c.sizes.Pumps)
	for _, p := range pumps {
		recs := make([]*store.Record, len(acked[p]))
		for i, day := range acked[p] {
			recs[i] = c.ds.Capture(p, day)
		}
		ref.add(recs)
	}
	checkAnalysis(res, admin, ref, pumps)
	return nil
}

func runIngestSteady(e *env) (*result, error) {
	res := newResult()
	c, err := generateCorpus(servingFleet, e.seed)
	if err != nil {
		return nil, err
	}
	rounds := e.setups()
	round := e.window() / time.Duration(rounds)
	lenA := time.Duration(float64(round) * ingestAShare)
	lenB := round - lenA
	plan := planIngest(c, e.seed, ingestRate, ingestWarmOps, int(ingestRate*lenA.Seconds()), int(burstPoolRate*lenB.Seconds()))
	res.Notes["plan_sha256"] = planHash(plan.Ops, plan.Bodies)
	res.Notes["rounds"] = fmt.Sprintf("%d, each on a freshly booted child replaying the same schedule", rounds)
	res.Notes["phase_a"] = fmt.Sprintf("open loop, %g POST/s (+1 GET each) for %v on %d connections", ingestRate, lenA, e.conns)
	res.Notes["phase_b"] = fmt.Sprintf("closed loop, 1 connection for %v", lenB)

	// Checkpoints inside the window put fsync stalls of 20–850 ms into
	// the ack tail on this sandbox, which no bound can hold; the
	// untraced run therefore keeps vibed's default interval (none
	// fires), and the traced run's child phase checkpoints
	// checkpointsIn times and reports the tail under per-layer names.
	args := []string{"-fsync", "always"}
	if e.trace {
		args = append(args, "-checkpoint-interval", (e.window() / checkpointsIn).String())
	}
	var got ingestSamples
	setups, rss, err := servingRounds(e, c, args, func(k int, ch *child) error {
		return ingestRound(e, res, c, plan, ch, lenA, lenB, &got, k == rounds-1)
	})
	if err != nil {
		return nil, err
	}

	res.Notes["ack_ms"] = ladderNote(values(got.ack))
	res.Notes["visible_ms"] = ladderNote(values(got.visible))
	res.Notes["generator_lag_ms"] = ladderNote(got.lagMS)
	res.Notes["host"] = e.host.note()
	res.EndToEnd["setup_s"] = median(unstretched(e.host, setups)) / 1000
	res.EndToEnd["op_ms"] = quiet(e.host, got.ack, medianSlice, statMedian)
	res.EndToEnd["view_ms"] = quiet(e.host, got.visible, medianSlice, statMedian)
	res.EndToEnd["capacity_per_s"] = quietRate(e.host, got.burstAt, rateSlice)
	res.EndToEnd["peak_rss_mb"] = median(rss)
	res.Samples["setup_s"] = len(setups)
	res.Samples["op_ms"] = len(got.ack)
	res.Samples["view_ms"] = len(got.visible)
	res.Samples["capacity_per_s"] = len(got.burstAt)
	res.Samples["peak_rss_mb"] = len(rss)

	if e.trace {
		res.PerLayer["op_tail_ms"] = quiet(e.host, got.ack, tailSlice, statTail)
		res.PerLayer["ingest.ack_p99_ms"] = p99(values(got.ack))
		res.PerLayer["ingest.visible_p99_ms"] = p99(values(got.visible))
		res.PerLayer["generator.lag_p99_ms"] = p99(got.lagMS)
		res.PerLayer["generator.backlog_end"] = float64(got.unsent)
		res.Samples["op_tail_ms"] = len(got.ack)
		res.Samples["generator.lag_p99_ms"] = len(got.lagMS)
		if err := traceIngest(e, res, plan, res.EndToEnd["op_ms"]); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// storeCounts turns the child's own counters, scraped before and after
// the measured window, into the store's per-layer ratios.
func storeCounts(res *result, before, after map[string]float64) {
	appends := delta(before, after, "vibepm_store_wal_appends_total")
	res.PerLayer["store.fsyncs_per_append"] = ratio(delta(before, after, "vibepm_store_wal_fsyncs_total"), appends)
	res.PerLayer["store.wal_bytes_per_user_byte"] = ratio(
		delta(before, after, "vibepm_store_wal_bytes_total"),
		delta(before, after, "vibepm_store_record_bytes_total"))
	ckpts := delta(before, after, "vibepm_store_checkpoints_total")
	res.PerLayer["store.checkpoints"] = ckpts
	res.PerLayer["store.checkpoint_s"] = ratio(delta(before, after, "vibepm_store_checkpoint_duration_seconds_sum"), ckpts)
	res.Samples["store.checkpoint_s"] = int(ckpts)
	hitRatio := func(hits, misses string) float64 {
		h, m := delta(before, after, hits), delta(before, after, misses)
		return ratio(h, h+m)
	}
	res.PerLayer["restapi.trend_cache_hit_ratio"] = hitRatio("vibepm_api_trend_cache_hits_total", "vibepm_api_trend_cache_misses_total")
	res.PerLayer["store.pyramid_cache_hit_ratio"] = hitRatio("vibepm_store_pyramid_cache_hits_total", "vibepm_store_pyramid_cache_misses_total")
	res.PerLayer["engine.trend_cache_hit_ratio"] = hitRatio("vibepm_engine_trend_cache_hits_total", "vibepm_engine_trend_cache_misses_total")
	res.PerLayer["stream.cache_hit_ratio"] = hitRatio("vibepm_stream_cache_hits_total", "vibepm_stream_cache_misses_total")
}
