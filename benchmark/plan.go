package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"vibepm/internal/dataset"
	"vibepm/internal/par"
	"vibepm/internal/physics"
	"vibepm/internal/restapi"
	"vibepm/internal/store"
)

// fleetSizes sizes a generated corpus. The paper's fleet is 12 pumps
// over 90 days at 1024 samples × 3 axes; PerDay and the label counts
// are what the run-time cap lets a workload afford (README, "Sizes").
type fleetSizes struct {
	Pumps    int
	Days     float64
	PerDay   float64
	Samples  int
	LabelsA  int
	LabelsBC int
	LabelsD  int
}

// servingFleet backs the three workloads that boot vibed: 3,240 trend
// records + 400 labelled, so exec → ready is ~2 s on two cores and a
// run can afford to boot three times for a median set-up time.
var servingFleet = fleetSizes{Pumps: 12, Days: 90, PerDay: 3, Samples: 1024, LabelsA: 100, LabelsBC: 200, LabelsD: 100}

// batchFleet is the paper_batch corpus: the paper's 2,800 labels and a
// 17,280-record trend (the paper's 155,520 at 1/9 density).
var batchFleet = fleetSizes{Pumps: 12, Days: 90, PerDay: 16, Samples: 1024, LabelsA: 700, LabelsBC: 1400, LabelsD: 700}

func (s fleetSizes) config(seed int64) dataset.Config {
	return dataset.Config{
		Pumps:              s.Pumps,
		Seed:               seed,
		DurationDays:       s.Days,
		MeasurementsPerDay: s.PerDay,
		Samples:            s.Samples,
		LabelCounts: map[physics.MergedZone]int{
			physics.MergedA:  s.LabelsA,
			physics.MergedBC: s.LabelsBC,
			physics.MergedD:  s.LabelsD,
		},
	}
}

// corpus is a generated fleet: trend and labelled records in one
// measurement store (as vibegen writes it), plus the label store.
type corpus struct {
	sizes fleetSizes
	ds    *dataset.Dataset
}

func generateCorpus(s fleetSizes, seed int64) (*corpus, error) {
	ds, err := dataset.Generate(s.config(seed))
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	for _, lr := range ds.LabelledRecords {
		ds.Measurements.Add(lr.Record)
	}
	return &corpus{sizes: s, ds: ds}, nil
}

// save writes the corpus as a vibed -data directory.
func (c *corpus) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := c.ds.Measurements.SaveFile(filepath.Join(dir, "measurements.bin")); err != nil {
		return fmt.Errorf("save measurements: %w", err)
	}
	if err := c.ds.Labels.SaveFile(filepath.Join(dir, "labels.json")); err != nil {
		return fmt.Errorf("save labels: %w", err)
	}
	return nil
}

// perPump counts the corpus records of each pump.
func (c *corpus) perPump() map[int]int {
	out := map[int]int{}
	for _, id := range c.ds.Measurements.Pumps() {
		out[id] = len(c.ds.Measurements.All(id))
	}
	return out
}

// encodeBody renders one record as a POST /api/v1/measurements body.
func encodeBody(rec *store.Record) []byte {
	b, err := json.Marshal(restapi.IngestRequest{
		PumpID:       rec.PumpID,
		ServiceDays:  rec.ServiceDays,
		SampleRateHz: rec.SampleRateHz,
		ScaleG:       rec.ScaleG,
		X:            restapi.EncodeAxis(rec.Raw[0]),
		Y:            restapi.EncodeAxis(rec.Raw[1]),
		Z:            restapi.EncodeAxis(rec.Raw[2]),
	})
	if err != nil {
		panic(err) // plain struct of numbers and strings
	}
	return b
}

// newDay is the service time of a pump's k-th fresh record (k from 1):
// past the corpus window, at the paper's 10-minute period.
func (s fleetSizes) newDay(k int) float64 { return s.Days + float64(k)/144 }

type writeKind uint8

const (
	writeFresh  writeKind = iota // newer than everything the pump holds; expects 201
	writeLate                    // older than the pump's newest record; expects 201
	writeResend                  // byte-identical re-send of an earlier body; expects 409
)

// writeOp is one POST of the schedule. Body indexes the plan's bodies.
type writeOp struct {
	Pump int
	Day  float64
	Kind writeKind
	Body int
}

// writer hands out the write schedule of a plan: pumps round-robin,
// service time advancing per pump, with seeded late arrivals and exact
// re-sends. It records which (pump, day) captures the plan needs.
type writer struct {
	sizes    fleetSizes
	rng      *rand.Rand
	fresh    map[int]int          // fresh records issued per pump
	lateUsed map[int]map[int]bool // per pump: trend slots already used for a late arrival
	lastBody map[int]int          // per pump: body of its latest accepted write
	ops      []writeOp
}

func newWriter(s fleetSizes, seed int64) *writer {
	return &writer{
		sizes:    s,
		rng:      rand.New(rand.NewSource(seed ^ 0x77726974)),
		fresh:    map[int]int{},
		lateUsed: map[int]map[int]bool{},
		lastBody: map[int]int{},
	}
}

// next appends the n-th write. lateShare and resendShare are the
// seeded fractions of late arrivals and exact re-sends.
func (w *writer) next(n int, lateShare, resendShare float64) int {
	pump := n % w.sizes.Pumps
	u := w.rng.Float64()
	slot := w.rng.Intn(int(w.sizes.Days * w.sizes.PerDay)) // drawn every time so kinds do not shift the stream
	op := writeOp{Pump: pump, Body: len(w.ops)}
	last, seen := w.lastBody[pump]
	switch {
	case u < resendShare && seen:
		op.Kind, op.Body, op.Day = writeResend, last, w.ops[last].Day
	case u < resendShare+lateShare && !w.lateUsed[pump][slot]:
		if w.lateUsed[pump] == nil {
			w.lateUsed[pump] = map[int]bool{}
		}
		w.lateUsed[pump][slot] = true
		// Halfway between two trend captures: inside the pump's history
		// and on no existing key.
		op.Kind, op.Day = writeLate, (float64(slot)+0.5)/w.sizes.PerDay
	default:
		w.fresh[pump]++
		op.Kind, op.Day = writeFresh, w.sizes.newDay(w.fresh[pump])
	}
	if op.Kind != writeResend {
		w.lastBody[pump] = op.Body
	}
	w.ops = append(w.ops, op)
	return len(w.ops) - 1
}

// bodies captures and encodes every distinct write of the schedule.
// Re-sends share the body of the write they repeat.
func (w *writer) bodies(c *corpus) [][]byte {
	return par.Map(len(w.ops), 0, func(i int) []byte {
		op := w.ops[i]
		if op.Kind == writeResend {
			return nil
		}
		return encodeBody(c.ds.Capture(op.Pump, op.Day))
	})
}

// ingestPlan is the ingest_steady schedule: a warm-up, phase A at a
// fixed arrival rate, then a pool of fresh writes for the closed-loop
// phase B.
type ingestPlan struct {
	Rate   float64
	Ops    []writeOp // all writes: [0,NWarm) warm-up, then NA of phase A, the rest the phase B pool
	NWarm  int
	NA     int
	Bodies [][]byte
}

const (
	ingestLateShare   = 0.02
	ingestResendShare = 0.01
)

func planIngest(c *corpus, seed int64, rate float64, nWarm, nA, nB int) *ingestPlan {
	w := newWriter(c.sizes, seed)
	for i := 0; i < nWarm+nA+nB; i++ {
		if i >= nWarm && i < nWarm+nA {
			w.next(i, ingestLateShare, ingestResendShare)
		} else {
			w.next(i, 0, 0)
		}
	}
	return &ingestPlan{Rate: rate, Ops: w.ops, NWarm: nWarm, NA: nA, Bodies: w.bodies(c)}
}

func (p *ingestPlan) body(i int) []byte { return p.Bodies[p.Ops[i].Body] }

type readKind uint8

const (
	readTrend readKind = iota
	readFaults
	readZone
	readRUL
	readFleet
	readWrite // the trickle POST that keeps invalidating the caches
	readKinds
)

var readKindNames = [readKinds]string{"trend", "faults", "zone", "rul", "fleet", "write"}

// readOp is one request of the dashboard schedule.
type readOp struct {
	Kind        readKind
	Pump        int
	Points      int
	Metric      string
	Conditional bool // send the last seen ETag of this URL in If-None-Match
	Write       int  // index into Writes for readWrite
}

func (o readOp) path() string {
	switch o.Kind {
	case readTrend:
		return fmt.Sprintf("/api/v1/pumps/%d/trend?points=%d&metric=%s", o.Pump, o.Points, o.Metric)
	case readFaults:
		return fmt.Sprintf("/api/v1/pumps/%d/faults", o.Pump)
	case readZone:
		return fmt.Sprintf("/api/v1/analysis/pumps/%d/zone", o.Pump)
	case readRUL:
		return fmt.Sprintf("/api/v1/analysis/pumps/%d/rul", o.Pump)
	case readFleet:
		return "/api/v1/analysis/fleet"
	}
	return "/api/v1/measurements"
}

// readPlan is the dashboard_read schedule: phase A at a fixed arrival
// rate with one write every writeEvery requests, then a pool of
// refresh cycles for the closed-loop phase B.
type readPlan struct {
	Rate   float64
	Ops    []readOp
	NA     int
	Writes []writeOp
	Bodies [][]byte
}

// refreshOps is the length of one phase B cycle: a write and the five
// views it invalidates.
const refreshOps = 6

// The seeded read mix. Trend budgets keep the issue's ratio of series
// length to budget (6.5×, 3.3×, 1.6×) at this corpus' ~300 points per
// pump.
const (
	writeEvery  = 60 // 5 POST/s at 300 requests/s
	shareTrend  = 0.60
	shareFaults = 0.15
	shareZone   = 0.10
	shareRUL    = 0.10
)

var trendBudgets = []int{48, 96, 192}
var trendMetrics = []string{"rms", "vrms"}

func planReads(c *corpus, seed int64, rate float64, nA, nB int) *readPlan {
	rng := rand.New(rand.NewSource(seed ^ 0x72656164))
	w := newWriter(c.sizes, seed)
	p := &readPlan{Rate: rate, NA: nA}
	write := func() readOp {
		wi := w.next(len(w.ops), 0, 0)
		return readOp{Kind: readWrite, Pump: w.ops[wi].Pump, Write: wi}
	}
	for i := 0; i < nA; i++ {
		if i%writeEvery == writeEvery-1 {
			p.Ops = append(p.Ops, write())
			continue
		}
		op := readOp{Pump: rng.Intn(c.sizes.Pumps), Conditional: rng.Intn(2) == 0}
		// Every draw happens for every op so one kind's parameters do
		// not shift the stream of the next.
		u, b, m := rng.Float64(), rng.Intn(len(trendBudgets)), rng.Intn(len(trendMetrics))
		switch {
		case u < shareTrend:
			op.Kind, op.Points, op.Metric = readTrend, trendBudgets[b], trendMetrics[m]
		case u < shareTrend+shareFaults:
			op.Kind = readFaults
		case u < shareTrend+shareFaults+shareZone:
			op.Kind = readZone
		case u < shareTrend+shareFaults+shareZone+shareRUL:
			op.Kind = readRUL
		default:
			op.Kind = readFleet
		}
		p.Ops = append(p.Ops, op)
	}
	// Phase B, a dashboard refreshing on every new measurement: one
	// write, then the five views it invalidated, each re-polled with the
	// validator the dashboard holds (which no longer matches). Whichever
	// analysis view comes first pays for the pump's new clean trend:
	// alternately the fleet page and the pump's own page.
	for cycle := 0; len(p.Ops) < nA+nB; cycle++ {
		wr := write()
		b, m := rng.Intn(len(trendBudgets)), rng.Intn(len(trendMetrics))
		views := []readOp{
			{Kind: readFleet, Conditional: true},
			{Kind: readTrend, Pump: wr.Pump, Points: trendBudgets[b], Metric: trendMetrics[m], Conditional: true},
			{Kind: readFaults, Pump: wr.Pump, Conditional: true},
			{Kind: readZone, Pump: wr.Pump, Conditional: true},
			{Kind: readRUL, Pump: wr.Pump, Conditional: true},
		}
		if cycle%2 == 1 {
			slices.Reverse(views)
		}
		p.Ops = append(append(p.Ops, wr), views...)
	}
	p.Writes = w.ops
	p.Bodies = w.bodies(c)
	return p
}

// planHash fingerprints a schedule and its bodies: same seed, same
// hash; the determinism tests and the result stamp both use it.
func planHash(ops any, bodies [][]byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", ops)
	for _, b := range bodies {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
