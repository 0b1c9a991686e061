package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tinyFleet keeps the plan tests fast: the paper's 12 pumps and 90
// days, 64-sample captures.
var tinyFleet = fleetSizes{Pumps: 12, Days: 90, PerDay: 0.5, Samples: 64, LabelsA: 10, LabelsBC: 20, LabelsD: 10}

func planHashes(t *testing.T, seed int64) (ingest, reads string) {
	t.Helper()
	c, err := generateCorpus(tinyFleet, seed)
	if err != nil {
		t.Fatal(err)
	}
	ip := planIngest(c, seed, ingestRate, 20, 400, 100)
	rp := planReads(c, seed, readRate, 600, 200)
	return planHash(ip.Ops, ip.Bodies), planHash(rp.Ops, rp.Bodies)
}

func TestSameSeedSamePlan(t *testing.T) {
	i1, r1 := planHashes(t, 7)
	i2, r2 := planHashes(t, 7)
	if i1 != i2 || r1 != r2 {
		t.Fatalf("seed 7 twice: ingest %s vs %s, reads %s vs %s", i1, i2, r1, r2)
	}
	i3, r3 := planHashes(t, 8)
	if i1 == i3 || r1 == r3 {
		t.Fatalf("seeds 7 and 8 gave the same schedule or bodies")
	}
}

func TestIngestPlanShape(t *testing.T) {
	c, err := generateCorpus(tinyFleet, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := planIngest(c, 3, ingestRate, 0, 3000, 0)
	kinds := map[writeKind]int{}
	seen := map[string]bool{}
	for i, op := range p.Ops {
		kinds[op.Kind]++
		if op.Pump != i%tinyFleet.Pumps {
			t.Fatalf("op %d on pump %d, want round-robin", i, op.Pump)
		}
		key := fmt.Sprintf("%d/%v", op.Pump, op.Day)
		if op.Kind == writeResend {
			if !seen[key] {
				t.Fatalf("op %d re-sends %s before it was sent", i, key)
			}
			if !bytes.Equal(p.body(i), p.Bodies[op.Body]) || p.Bodies[op.Body] == nil {
				t.Fatalf("op %d: re-send does not share the original body", i)
			}
			continue
		}
		if seen[key] {
			t.Fatalf("op %d repeats key %s without being a re-send", i, key)
		}
		seen[key] = true
		if op.Kind == writeLate && op.Day >= tinyFleet.Days {
			t.Fatalf("late op %d at day %v is not inside the pump's history", i, op.Day)
		}
	}
	if kinds[writeLate] == 0 || kinds[writeResend] == 0 || kinds[writeFresh] < 2800 {
		t.Fatalf("kinds %v: want mostly fresh with some late arrivals and re-sends", kinds)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", v, err)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, p := tail(xs[:150]); p != 90 || v != 135 {
		t.Fatalf("tail of 150 samples = p%v %v, want p90 135", p, v)
	}
	if v := p99(xs[:150]); v != 0 {
		t.Fatalf("p99 of 150 samples = %v, want 0 (refused)", v)
	}
	if v, p := tail(xs[:7]); p != 50 || v != 4 {
		t.Fatalf("tail of 7 samples = p%v %v, want the median 4", p, v)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// A stub that stalls once must cost the requests queued behind the
// stall their waiting time: latency runs from the due instant, not
// from the (late) send.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	c := newConn(srv.URL)
	defer c.close()

	const n, every = 120, 5 * time.Millisecond
	fromDue := make([]time.Duration, n)
	fromSend := make([]time.Duration, n)
	start := time.Now()
	st := laneRun{
		start: start, deadline: start.Add(5 * time.Second),
		lanes: lanesBy(n, 1, func(int) int { return 0 }),
		due:   func(i int) time.Duration { return time.Duration(i) * every },
		do: func(_, i int, dueAt time.Time) {
			sent := time.Now()
			if status, _, _, err := c.roundTrip(http.MethodGet, "/", nil, ""); err != nil || status != http.StatusOK {
				t.Errorf("request %d: status %d, err %v", i, status, err)
			}
			fromDue[i], fromSend[i] = time.Since(dueAt), time.Since(sent)
		},
	}.run(context.Background())

	if st.sent != n || st.unsent != 0 {
		t.Fatalf("sent %d unsent %d, want %d and 0", st.sent, st.unsent, n)
	}
	// Request 4 stalls; 5..44 were due well inside the stall.
	for i := 5; i < 45; i++ {
		wait := stall - time.Duration(i-4)*every
		if fromDue[i] < wait-20*time.Millisecond {
			t.Errorf("request %d: %v from its due time, want at least ~%v (the stall it queued behind)", i, fromDue[i], wait)
		}
		if fromSend[i] > stall/2 {
			t.Errorf("request %d took %v from its send: the stub only stalls once", i, fromSend[i])
		}
	}
	if lag, _ := tail(st.lagMS); lag < 100 {
		t.Fatalf("generator lag p90 %.1f ms: half the requests queued behind the stall", lag)
	}
	if fromDue[n-1] > stall/2 {
		t.Errorf("last request %v from due: the lane should have caught up", fromDue[n-1])
	}
}

// Stalled stretches covering half the run must not move the sliced
// statistics, where they move a whole-run p90 forty-fold. Two rounds,
// seconds apart on the run's clock as the serving workloads lay them
// out.
func TestQuietIgnoresStalledStretches(t *testing.T) {
	var xs []timed
	var at []float64
	for round := 0; round < 2; round++ {
		for s := 0; s < 5; s++ {
			for i := 0; i < 200; i++ {
				v := 1 + float64(i*7%100)/100 // 1.00 .. 1.99 ms, every quarter second covering the range
				stalled := round == 1 && s < 4 || round == 0 && s == 2
				if stalled {
					v += 80
				}
				when := float64(round)*9 + float64(s) + float64(i)/200
				xs = append(xs, timed{when, v})
				if !stalled || i < 20 {
					at = append(at, when)
				}
			}
		}
	}
	if whole, _ := tail(values(xs)); whole < 80 {
		t.Fatalf("whole-run p90 = %v: the test's stalls should dominate it", whole)
	}
	if got := quiet(nil, xs, tailSlice, statTail); got < 1.8 || got > 2 {
		t.Fatalf("sliced p90 = %v, want ~1.9", got)
	}
	if got := quiet(nil, xs, medianSlice, statMedian); got < 1.4 || got > 1.6 {
		t.Fatalf("sliced median = %v, want ~1.5", got)
	}
	if got := quietRate(nil, at, rateSlice); got != 200 {
		t.Fatalf("sliced rate = %v/s, want 200 (the stretches at 20/s fall out of the upper quartile)", got)
	}
	if got := quiet(nil, xs[:150], tailSlice, statTail); got < 1.8 || got > 2 {
		t.Fatalf("one slice only: %v, want the whole-sample p90", got)
	}
	// Slices too thin for a median are left out, not averaged in.
	thin := append([]timed{{50, 1000}}, xs[:400]...)
	if got := quiet(nil, thin, medianSlice, statMedian); got > 1.6 {
		t.Fatalf("a slice of one sample moved the sliced median to %v", got)
	}
}

// What the host stole is scaled out slice by slice: a run whose every
// slice was stolen from reads what an undisturbed one reads.
func TestStolenTimeIsScaledOut(t *testing.T) {
	busy, stolen, ok := parseCPULine("cpu  1333059 12 151450 1469434 42502 3 34202 46066 0 0\n")
	if !ok || busy != 1333059+12+151450+3+34202 || stolen != 46066 {
		t.Fatalf("parseCPULine = %v, %v, %v", busy, stolen, ok)
	}
	if _, _, ok := parseCPULine("cpu0 1 2 3\n"); ok {
		t.Fatal("a short line must be refused")
	}

	// Ten seconds sampled every 50 ms: 40 busy ticks a second throughout,
	// and from second 2 on another 40 stolen ones, so everything there
	// takes twice as long.
	h := &hostClock{}
	for i := 0; i <= 200; i++ {
		at := float64(i) * 0.05
		h.at = append(h.at, at)
		h.busy = append(h.busy, 40*at)
		h.stolen = append(h.stolen, 40*max(0, at-2))
	}
	if got := h.unstolen(0, 2); got != 1 {
		t.Fatalf("unstolen before anything was stolen = %v, want 1", got)
	}
	if got := h.unstolen(4, 4.25); got < 0.499 || got > 0.501 {
		t.Fatalf("unstolen = %v, want 0.5", got)
	}
	var xs []timed
	var at []float64
	for i := 0; i < 2000; i++ {
		when := float64(i) / 200
		v := 1 + float64(i*7%100)/100
		if when >= 2 {
			v *= 2
			if i%2 == 1 {
				continue // half the events: the closed loop runs at half speed
			}
		}
		xs = append(xs, timed{when, v})
		at = append(at, when)
	}
	if got := quiet(nil, xs[400:], medianSlice, func(x []float64) (float64, bool) { return median(x), len(x) >= 10 }); got < 2.8 {
		t.Fatalf("as measured the stolen stretch reads %v, want ~3", got)
	}
	if got := quiet(h, xs[400:], medianSlice, func(x []float64) (float64, bool) { return median(x), len(x) >= 10 }); got < 1.4 || got > 1.6 {
		t.Fatalf("scaled median = %v, want ~1.5", got)
	}
	if got := quietRate(h, at[400:], rateSlice); got < 190 || got > 210 {
		t.Fatalf("scaled rate = %v/s, want ~200", got)
	}
	if got := unstretched(h, []timed{{0, 1500}, {4, 3000}}); got[0] != 1500 || got[1] < 1499 || got[1] > 1501 {
		t.Fatalf("unstretched = %v, want 1500 twice", got)
	}
	// A slice the host took all of has nothing left to scale by: it is
	// left out, not divided by zero.
	gone := &hostClock{at: []float64{0, 2, 2.25, 10}, busy: []float64{0, 80, 80, 390}, stolen: []float64{0, 0, 10, 10}}
	if got := quietRate(gone, at[350:425], rateSlice); got != 200 { // 1.75 s to 2.25 s
		t.Fatalf("rate with one slice of two stolen outright = %v/s, want 200", got)
	}
	if got := quiet(gone, xs[:425], medianSlice, statMedian); got < 1.4 || got > 1.6 {
		t.Fatalf("median with one slice stolen outright = %v, want ~1.5", got)
	}
	var none *hostClock
	if none.unstolen(0, 1) != 1 {
		t.Fatal("no clock: times are as measured")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for q, want := range map[float64]float64{0: 10, 0.25: 20, 0.5: 30, 0.75: 40, 1: 50, 0.1: 14} {
		if got := quantile(xs, q); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty input")
	}
}

// A pass that ran while the cores were at half speed reads what the
// pass at full speed reads; probes that were taken off their core say
// nothing about its speed; an interval too short to have been probed
// takes the run's speed.
func TestSlowCoresAreScaledOut(t *testing.T) {
	h := &hostClock{}
	for i := 0; i < 1000; i++ { // ten seconds, a probe every 10 ms
		at := float64(i) / 100
		us := probeQuietUS
		switch {
		case at >= 4 && at < 6:
			us *= 2 // a busy sibling
		case at >= 8 && i%4 == 0:
			us *= 40 // pre-empted in the middle of the probe
		}
		h.probeAt = append(h.probeAt, at)
		h.probeUS = append(h.probeUS, us)
	}
	for _, c := range []struct{ t0, t1, want float64 }{
		{0, 2, 1}, {4, 6, 0.5}, {3, 5, 0.75}, {8, 10, 1},
		{4, 4.05, 0.9}, // five probes: the run's (8×1 + 2×½) / 10
	} {
		if got := h.speed(c.t0, c.t1); got < c.want-0.01 || got > c.want+0.01 {
			t.Errorf("speed(%v, %v) = %v, want %v", c.t0, c.t1, got, c.want)
		}
	}
	got := atFullSpeed(h, []timed{{0, 1500}, {4, 2000}, {2.5, 2000}})
	for i, want := range []float64{1500, 1000, 1750} {
		if got[i] < want-20 || got[i] > want+20 {
			t.Errorf("atFullSpeed[%d] = %v, want %v", i, got[i], want)
		}
	}
	var none *hostClock
	if none.speed(0, 1) != 1 || (&hostClock{}).speed(0, 1) != 1 {
		t.Fatal("no clock, or no probes: times are as measured")
	}
	// The probe itself: a fixed amount of work that takes a fraction of
	// a millisecond.
	start := time.Now()
	if work, took := probeWork(), time.Since(start); took > 50*time.Millisecond || work == 0 {
		t.Errorf("probeWork = %v after %v", work, took)
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	start := time.Now()
	var done atomic.Int32
	st := laneRun{
		start: start, deadline: start.Add(50 * time.Millisecond),
		lanes: lanesBy(1000, 2, func(i int) int { return i }),
		do:    func(_, _ int, _ time.Time) { time.Sleep(5 * time.Millisecond); done.Add(1) },
	}.run(context.Background())
	if st.sent != int(done.Load()) || st.sent == 0 || st.sent+st.unsent != 1000 || st.sent > 40 {
		t.Fatalf("sent %d, unsent %d, done %d: want a few per lane and the rest unsent", st.sent, st.unsent, done.Load())
	}
}

// A server that answers 304 although the pump was written since the
// validator was issued must be counted as a failure; an honest 304
// must not.
func TestStale304IsAFailure(t *testing.T) {
	for _, honest := range []bool{true, false} {
		var gen atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				gen.Add(1)
				w.WriteHeader(http.StatusCreated)
				return
			}
			tag := `"g0"`
			if honest {
				tag = fmt.Sprintf(`"g%d"`, gen.Load())
			}
			w.Header().Set("ETag", tag)
			if r.Header.Get("If-None-Match") == tag {
				w.WriteHeader(http.StatusNotModified)
				return
			}
			fmt.Fprintf(w, `{"pump_id":0,"total_points":%d}`, 5+gen.Load())
		}))
		read := readOp{Kind: readTrend, Pump: 0, Points: 48, Metric: "rms", Conditional: true}
		d := &dashboard{
			plan: &readPlan{
				Ops:    []readOp{read, read, {Kind: readWrite, Pump: 0, Write: 0}, read},
				Writes: []writeOp{{Pump: 0, Day: 91}},
				Bodies: [][]byte{[]byte(`{}`)},
			},
			initial: map[int]int{0: 5}, counts: newWriteCounts(1), etags: map[string]etagSeen{}, host: &hostClock{epoch: time.Now()},
			conns:   []*conn{newConn(srv.URL)},
			tallies: []*readTally{{tally: newTally()}},
		}
		for i := range d.plan.Ops {
			d.do(0, i, time.Now())
		}
		tally := d.tallies[0]
		srv.Close()
		switch {
		case honest && (tally.failed != 0 || tally.status304 != 1 || tally.verified != 1):
			t.Errorf("honest server: failed %d (%v), 304s %d, verified %d; want 0, 1, 1", tally.failed, tally.problems, tally.status304, tally.verified)
		case !honest && tally.failed != 1:
			t.Errorf("stale 304 after a write: failed %d (%v), want 1", tally.failed, tally.problems)
		}
	}
}

func TestSelfTimeAndUnattributed(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0, 1, false)
	tr.end(root)
	tr.spans[root-1].Start, tr.spans[root-1].End = 0, 1000
	for _, d := range []int64{300, 500} {
		id := tr.begin("child", root, 1, true)
		tr.end(id)
		// A replayed child lies outside its parent's interval; only its
		// duration counts.
		tr.spans[id-1].Start, tr.spans[id-1].End = 5000, 5000+d
	}
	grandchild := tr.begin("grandchild", root+1, 1, true)
	tr.end(grandchild)
	tr.spans[grandchild-1].Start, tr.spans[grandchild-1].End = 0, 100
	if got := tr.unattributed("root"); got < 0.1999 || got > 0.2001 {
		t.Fatalf("unattributed = %v, want 0.2 (1000 − 300 − 500, grandchildren not counted twice)", got)
	}
}

func TestScrape(t *testing.T) {
	text := "# HELP x\nvibepm_store_wal_appends_total 42\n" +
		`vibepm_http_requests_total{route="GET /api/v1/pumps",status="200"} 7` + "\n" +
		"vibepm_store_checkpoint_duration_seconds_sum 0.25\n"
	got, err := scrape(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got["vibepm_store_wal_appends_total"] != 42 || got["vibepm_store_checkpoint_duration_seconds_sum"] != 0.25 ||
		got[`vibepm_http_requests_total{route="GET /api/v1/pumps",status="200"}`] != 7 {
		t.Fatalf("scraped %v", got)
	}
}

func TestCompare(t *testing.T) {
	mk := func(scale float64, failed int) *resultsFile {
		f := &resultsFile{Workloads: map[string]*workloadResult{}}
		for _, wl := range workloads {
			w := &workloadResult{Correct: true, Attempted: 100, Failed: failed, EndToEnd: map[string]float64{}}
			for _, m := range endToEnd {
				w.EndToEnd[m.Name] = 10
			}
			w.EndToEnd["op_ms"] = 10 * scale
			f.Workloads[wl.Name] = w
		}
		return f
	}
	var out bytes.Buffer
	bound := endToEnd[1].Bound // op_ms
	if code := compareResults(&out, mk(1, 0), mk(1+bound/2, 0)); code != 0 {
		t.Fatalf("half the bound slower is inside it, got exit %d:\n%s", code, out.String())
	}
	if code := compareResults(&out, mk(1, 0), mk(1+2*bound, 0)); code != 1 {
		t.Fatalf("twice the bound slower is past it, got exit %d", code)
	}
	if code := compareResults(&out, mk(1, 0), mk(0.5, 1)); code != 1 {
		t.Fatalf("a higher failed share must fail the comparison, got exit %d", code)
	}
	faster := mk(1, 0)
	for _, w := range faster.Workloads {
		w.EndToEnd["capacity_per_s"] = 5 // higher is better: half the capacity is worse
	}
	if code := compareResults(&out, mk(1, 0), faster); code != 1 {
		t.Fatalf("half the capacity is past the bound, got exit %d", code)
	}
}

// BENCHMARK.json restates spec.go for the driver; the two must agree.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if strings.Join(f.Command, " ") != "go run ./benchmark" || len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("command %v paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
	wls := workloads
	if len(f.Workloads) != len(wls) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(f.Workloads), len(wls))
	}
	for i, w := range wls {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs %s / %s", i, f.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: %d/%d end-to-end, %d/%d per-layer", len(f.EndToEnd), len(endToEnd), len(f.PerLayer), len(perLayer))
	}
	for i, m := range endToEnd {
		if g := f.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, g, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range perLayer {
		if g := f.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: %+v vs %+v", i, g, m)
		}
	}
}
