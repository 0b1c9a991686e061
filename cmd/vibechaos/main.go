// Command vibechaos soaks the mote→flush→gateway→store ingestion
// pipeline under a seeded fault plan and emits a JSON reliability
// report: delivered / duplicated / lost / recovered counts, retry
// histograms, breaker trips, and per-pump data-completeness from the
// engine's degraded-mode analysis. With a fixed seed the report is
// byte-identical across runs — the property the golden-file test in
// this package and docs/results/ pin down.
//
// Usage:
//
//	vibechaos -motes 8 -days 30 -plan hostile -seed 42
//	vibechaos -plan bursty -out report.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"vibepm"
	"vibepm/internal/chaos"
	"vibepm/internal/gateway"
	"vibepm/internal/mems"
	"vibepm/internal/mote"
	"vibepm/internal/obs"
	"vibepm/internal/physics"
)

// runConfig parameterizes one soak.
type runConfig struct {
	Motes       int
	Days        float64
	ReportHours float64
	Samples     int
	Seed        int64
	Plan        string
	Kill        bool // schedule a permanent death for the last mote
}

// moteReport is one mote's row of the soak report.
type moteReport struct {
	ID           int     `json:"id"`
	Produced     int     `json:"produced"`
	Stored       int     `json:"stored"`
	Transfers    int     `json:"transfers"`
	Failures     int     `json:"failures"`
	BreakerTrips int     `json:"breaker_trips"`
	Dead         bool    `json:"dead"`
	Completeness float64 `json:"completeness"`
}

// report is the soak outcome. Field order and types are part of the
// golden-file contract — keep deterministic (no timestamps, no map
// iteration leaking into arrays).
type report struct {
	Plan        string  `json:"plan"`
	Seed        int64   `json:"seed"`
	Motes       int     `json:"motes"`
	Days        float64 `json:"days"`
	ReportHours float64 `json:"report_hours"`

	Produced         int `json:"produced"`
	Stored           int `json:"stored"`
	Recovered        int `json:"recovered"`
	Reordered        int `json:"reordered"`
	Duplicates       int `json:"duplicates_suppressed"`
	TransferFailures int `json:"transfer_failures"`
	StoreFailures    int `json:"store_failures"`
	Quarantined      int `json:"quarantined"`
	CrashDrops       int `json:"crash_drops"`
	Lost             int `json:"lost"`
	Accounted        int `json:"accounted"`

	DeliveryRate float64 `json:"delivery_rate"`

	Retries        int            `json:"retries"`
	RetryHistogram map[string]int `json:"retry_histogram"`
	BackoffSeconds float64        `json:"backoff_seconds"`
	BreakerTrips   int            `json:"breaker_trips"`

	PacketsSent     int `json:"packets_sent"`
	Retransmissions int `json:"retransmissions"`

	DeadMotes []int        `json:"dead_motes"`
	Revived   []int        `json:"revived"`
	Faults    chaos.Counts `json:"faults_fired"`

	FleetCompleteness float64      `json:"fleet_completeness"`
	PerMote           []moteReport `json:"per_mote"`

	// Metrics is the gateway's counter/gauge snapshot from a private
	// obs registry — the soak's observability summary. Totals excludes
	// histograms (wall-clock durations would break byte-identical
	// reports); JSON maps marshal with sorted keys, so this stays
	// deterministic.
	Metrics map[string]float64 `json:"metrics"`
}

// run executes one soak and returns its report.
func run(cfg runConfig) (*report, error) {
	plan, err := chaos.Preset(cfg.Plan, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Kill && cfg.Motes > 0 {
		plan.KillAtDays = map[int]float64{cfg.Motes - 1: cfg.Days / 2}
	}
	inj := chaos.NewInjector(plan)
	// A private registry keeps the soak's metrics isolated from the
	// process-wide default, so the report reflects this run alone.
	reg := obs.NewRegistry()
	srv := gateway.New(gateway.Config{
		Faults:  inj,
		Retry:   gateway.RetryConfig{MaxAttempts: 4, Seed: cfg.Seed},
		Metrics: reg,
	})
	motes := make([]*mote.Mote, cfg.Motes)
	for i := 0; i < cfg.Motes; i++ {
		pump := physics.NewPump(physics.PumpConfig{ID: i, Seed: cfg.Seed + int64(i)*1_000_003})
		sensor, err := mems.New(mems.Config{Seed: cfg.Seed + int64(i) + 500})
		if err != nil {
			return nil, err
		}
		m, err := mote.New(mote.Config{
			ID:                    i,
			ReportPeriodHours:     cfg.ReportHours,
			SamplesPerMeasurement: cfg.Samples,
		}, sensor, pump)
		if err != nil {
			return nil, err
		}
		if err := srv.Register(m, 0); err != nil {
			return nil, err
		}
		motes[i] = m
	}

	var total gateway.IngestReport
	// The soak advances one day at a time.
	for now := 1.0; now < cfg.Days+0.5; now++ {
		mergeInto(&total, srv.Advance(now))
	}
	mergeInto(&total, srv.Drain())

	out := &report{
		Plan:        plan.Name,
		Seed:        cfg.Seed,
		Motes:       cfg.Motes,
		Days:        cfg.Days,
		ReportHours: cfg.ReportHours,

		Stored:           total.Stored,
		Recovered:        total.Recovered,
		Reordered:        total.Reordered,
		Duplicates:       total.Duplicates,
		TransferFailures: total.TransferFailures,
		StoreFailures:    total.StoreFailures,
		Quarantined:      total.Quarantined,
		CrashDrops:       total.CrashDrops,
		Lost:             total.TransferFailures + total.StoreFailures + total.Quarantined + total.CrashDrops,

		Retries:        total.Retries,
		RetryHistogram: map[string]int{},
		BackoffSeconds: total.BackoffSeconds,
		BreakerTrips:   total.BreakerTrips,

		PacketsSent:     total.PacketsSent,
		Retransmissions: total.Retransmissions,

		DeadMotes: srv.DeadMotes(),
		Revived:   append([]int{}, total.Revived...),
		Faults:    inj.Counts(),
	}
	sort.Ints(out.Revived)
	if out.DeadMotes == nil {
		out.DeadMotes = []int{}
	}
	for attempts, n := range total.RetryHistogram {
		out.RetryHistogram[fmt.Sprint(attempts)] = n
	}

	// Per-pump completeness through the engine's degraded-mode path:
	// expected counts are what each mote actually produced.
	expected := map[int]int{}
	for _, st := range srv.Status() {
		expected[st.ID] = st.Produced
		out.Produced += st.Produced
	}
	eng := vibepm.NewWithStores(vibepm.Options{}, srv.Store(), nil)
	deg, err := eng.AnalyzeDegraded(vibepm.DegradedConfig{ExpectedPerPump: expected})
	if err != nil {
		return nil, err
	}
	out.FleetCompleteness = deg.FleetCompleteness
	byPump := map[int]float64{}
	for _, ph := range deg.Pumps {
		byPump[ph.PumpID] = ph.Completeness
	}
	for _, st := range srv.Status() {
		out.PerMote = append(out.PerMote, moteReport{
			ID:           st.ID,
			Produced:     st.Produced,
			Stored:       len(srv.Store().All(st.ID)),
			Transfers:    st.Transfers,
			Failures:     st.Failures,
			BreakerTrips: st.BreakerTrips,
			Dead:         st.Dead,
			Completeness: byPump[st.ID],
		})
	}
	if out.PerMote == nil {
		out.PerMote = []moteReport{}
	}
	out.Accounted = out.Stored + out.Lost
	if out.Produced > 0 {
		out.DeliveryRate = float64(out.Stored) / float64(out.Produced)
	}
	out.Metrics = reg.Totals()
	return out, nil
}

func mergeInto(total *gateway.IngestReport, rep gateway.IngestReport) {
	total.Stored += rep.Stored
	total.Recovered += rep.Recovered
	total.Reordered += rep.Reordered
	total.Duplicates += rep.Duplicates
	total.TransferFailures += rep.TransferFailures
	total.StoreFailures += rep.StoreFailures
	total.Quarantined += rep.Quarantined
	total.CrashDrops += rep.CrashDrops
	total.Retries += rep.Retries
	total.BackoffSeconds += rep.BackoffSeconds
	total.BreakerTrips += rep.BreakerTrips
	total.PacketsSent += rep.PacketsSent
	total.Retransmissions += rep.Retransmissions
	total.Revived = append(total.Revived, rep.Revived...)
	if total.RetryHistogram == nil {
		total.RetryHistogram = map[int]int{}
	}
	for k, v := range rep.RetryHistogram {
		total.RetryHistogram[k] += v
	}
}

// marshal renders the report as the canonical newline-terminated JSON.
func marshal(r *report) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func main() {
	var (
		motes  = flag.Int("motes", 8, "fleet size")
		days   = flag.Float64("days", 30, "soak length in days")
		hours  = flag.Float64("report-hours", 6, "mote report period (hours)")
		seed   = flag.Int64("seed", 42, "fault-plan seed")
		planNm = flag.String("plan", "bursty", "fault plan: none, bursty, hostile")
		kill   = flag.Bool("kill", false, "schedule a permanent death for the last mote")
		outP   = flag.String("out", "", "write the JSON report here instead of stdout")
	)
	flag.Parse()

	rep, err := run(runConfig{
		Motes:       *motes,
		Days:        *days,
		ReportHours: *hours,
		Samples:     128,
		Seed:        *seed,
		Plan:        *planNm,
		Kill:        *kill,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vibechaos:", err)
		os.Exit(1)
	}
	b, err := marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vibechaos:", err)
		os.Exit(1)
	}
	if *outP != "" {
		if err := os.WriteFile(*outP, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "vibechaos:", err)
			os.Exit(1)
		}
		return
	}
	os.Stdout.Write(b)
}
