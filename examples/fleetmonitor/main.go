// Fleetmonitor runs the paper's end-to-end system (Fig. 1) in
// miniature: sensor motes attached to pumps sample vibration on their
// energy-constrained wakeup schedule, ship each 6 KB measurement over a
// lossy radio with the Flush reliable bulk transport, the sensor
// management server ingests them and tracks heartbeats, and the
// analysis engine classifies each pump's live health zone — driving the
// zone-adaptive sampling schedule the paper proposes as future work.
//
//	go run ./examples/fleetmonitor
package main

import (
	"fmt"
	"log"

	"vibepm"
	"vibepm/internal/dataset"
	"vibepm/internal/flush"
	"vibepm/internal/gateway"
	"vibepm/internal/mems"
	"vibepm/internal/mote"
	"vibepm/internal/physics"
	"vibepm/internal/sched"
)

func main() {
	// Train the analysis engine offline on a labelled corpus (as the
	// plant would from historical data).
	ds, err := dataset.Generate(dataset.Config{
		Seed: 7, DurationDays: 40, MeasurementsPerDay: 1, SkipTrend: true,
		LabelCounts: map[physics.MergedZone]int{
			physics.MergedA: 30, physics.MergedBC: 60, physics.MergedD: 30,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	eng := vibepm.NewWithStores(vibepm.Options{}, nil, ds.Labels)
	for _, lr := range ds.LabelledRecords {
		if _, err := eng.Ingest(lr.Record); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.Fit(); err != nil {
		log.Fatal(err)
	}
	boundary, _ := eng.Boundary()
	fmt.Printf("engine trained; BC/D boundary Da = %.3f\n\n", boundary)

	// Deploy a live fleet: 6 pumps at different ages, one mote each,
	// a 20%-lossy radio channel. The gateway assigns collision-free
	// TDMA wakeup slots sized for the 6 KB Flush transfer.
	fleet := physics.NewFleet(physics.FleetConfig{N: 6, Seed: 99})
	var reqs []sched.Request
	for i := range fleet.Pumps {
		reqs = append(reqs, sched.Request{
			MoteID:           i,
			SlotSeconds:      30,       // sampling + 120-packet Flush round + heartbeat
			MinPeriodSeconds: 6 * 3600, // 6-hour base reporting
		})
	}
	plan, err := sched.Build(reqs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TDMA plan: frame %.1f h, utilization %.1f%%\n\n",
		plan.FrameSeconds/3600, 100*plan.Utilization)
	srv := gateway.New(gateway.Config{
		Link:  flush.LinkConfig{GoodLoss: 0.2, Seed: 5},
		Slots: plan,
	})
	motes := make([]*mote.Mote, len(fleet.Pumps))
	adaptive := mote.AdaptiveScheduler{BaseHours: 6}
	for i, pump := range fleet.Pumps {
		sensor, err := mems.New(mems.Config{Seed: int64(i) + 500})
		if err != nil {
			log.Fatal(err)
		}
		m, err := mote.New(mote.Config{ID: i, ReportPeriodHours: adaptive.BaseHours}, sensor, pump)
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Register(m, 0); err != nil {
			log.Fatal(err)
		}
		motes[i] = m
	}

	// Run 10 days of operation in daily steps; after each step classify
	// the latest measurement of every pump and adapt its schedule.
	for day := 1.0; day <= 10; day++ {
		rep := srv.Advance(day)
		if day == 1 || day == 10 {
			fmt.Printf("day %2.0f: stored %d measurements (%d packets, %d retransmitted, %d transfer failures)\n",
				day, rep.Stored, rep.PacketsSent, rep.Retransmissions, rep.TransferFailures)
		}
		for _, pump := range fleet.Pumps {
			rec := srv.Store().Latest(pump.ID())
			if rec == nil {
				continue
			}
			zone, _, err := eng.Classify(rec)
			if err != nil {
				continue
			}
			severity := 1
			switch zone {
			case vibepm.ZoneA:
				severity = 0
			case vibepm.ZoneD:
				severity = 2
			}
			_ = srv.SetReportPeriod(pump.ID(), adaptive.Period(severity))
		}
	}

	fmt.Println("\nfleet status after 10 days:")
	fmt.Printf("%-6s %-10s %-9s %-12s %-10s %-8s\n", "pump", "zone", "Da", "period (h)", "battery J", "produced")
	for _, st := range srv.Status() {
		rec := srv.Store().Latest(st.ID)
		zone := vibepm.ZoneUnknown
		da := 0.0
		if rec != nil {
			zone, _, _ = eng.Classify(rec)
			da, _ = eng.Da(rec)
		}
		fmt.Printf("%-6d %-10s %-9.3f %-12.1f %-10.1f %-8d\n",
			st.ID, zone, da, motes[st.ID].ReportPeriodHours(), st.BatteryJ, st.Produced)
	}
	if dead := srv.DeadMotes(); len(dead) > 0 {
		fmt.Printf("dead motes: %v\n", dead)
	}
}
