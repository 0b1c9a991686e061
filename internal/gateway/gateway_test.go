package gateway

import (
	"errors"
	"testing"

	"vibepm/internal/flush"
	"vibepm/internal/mems"
	"vibepm/internal/mote"
	"vibepm/internal/physics"
	"vibepm/internal/sched"
)

func newNetwork(t *testing.T, n int, link flush.LinkConfig, reportHours float64) (*Server, []*mote.Mote) {
	t.Helper()
	srv := New(Config{Link: link})
	motes := make([]*mote.Mote, n)
	for i := 0; i < n; i++ {
		pump := physics.NewPump(physics.PumpConfig{ID: i, Seed: int64(i) + 1})
		sensor, err := mems.New(mems.Config{Seed: int64(i) + 100})
		if err != nil {
			t.Fatal(err)
		}
		m, err := mote.New(mote.Config{
			ID:                    i,
			ReportPeriodHours:     reportHours,
			SamplesPerMeasurement: 128,
		}, sensor, pump)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Register(m, 0); err != nil {
			t.Fatal(err)
		}
		motes[i] = m
	}
	return srv, motes
}

func TestEndToEndIngestion(t *testing.T) {
	srv, _ := newNetwork(t, 3, flush.LinkConfig{}, 12)
	rep := srv.Advance(2)
	if rep.Stored == 0 {
		t.Fatal("nothing ingested")
	}
	if rep.TransferFailures != 0 {
		t.Fatalf("failures on a perfect link: %d", rep.TransferFailures)
	}
	st := srv.Store()
	if got := len(st.Pumps()); got != 3 {
		t.Fatalf("pumps in store: %d", got)
	}
	// Each mote should have ~5 measurements over 2 days at 12 h.
	for _, id := range st.Pumps() {
		if n := len(st.All(id)); n < 4 {
			t.Fatalf("pump %d has only %d records", id, n)
		}
	}
	// Stored raw data matches what the sensor produced (lossless path).
	rec := st.All(0)[0]
	if rec.Samples() != 128 || rec.SampleRateHz != 4000 {
		t.Fatalf("record meta: %d samples at %g Hz", rec.Samples(), rec.SampleRateHz)
	}
}

func TestIngestionOverLossyLink(t *testing.T) {
	srv, _ := newNetwork(t, 2, flush.LinkConfig{GoodLoss: 0.2, Seed: 9}, 12)
	rep := srv.Advance(3)
	if rep.Stored == 0 {
		t.Fatal("nothing ingested over lossy link")
	}
	if rep.Retransmissions == 0 {
		t.Fatal("a 20% lossy link must force retransmissions")
	}
	if rep.TransferFailures != 0 {
		t.Fatalf("Flush should recover from 20%% loss: %d failures", rep.TransferFailures)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	srv, motes := newNetwork(t, 1, flush.LinkConfig{}, 12)
	if err := srv.Register(motes[0], 0); !errors.Is(err, ErrDuplicateMote) {
		t.Fatalf("err = %v", err)
	}
}

func TestSlotStaggering(t *testing.T) {
	srv, motes := newNetwork(t, 4, flush.LinkConfig{}, 24)
	_ = srv
	// Wakeup slots must not coincide.
	seen := map[float64]bool{}
	for _, m := range motes {
		at := m.NextWakeDays()
		if seen[at] {
			t.Fatalf("two motes share wakeup slot %g", at)
		}
		seen[at] = true
	}
}

func TestHeartbeatDeathDetection(t *testing.T) {
	// A mote with a tiny battery dies; the server must notice once the
	// heartbeat timeout — two 12 h report periods — elapses.
	srv := New(Config{})
	pump := physics.NewPump(physics.PumpConfig{ID: 0, Seed: 50})
	sensor, _ := mems.New(mems.Config{Seed: 51})
	tiny := mote.EnergyModel{BatteryJ: 0.08, SleepW: 1e-6, ActiveW: 0.066, RadioJ: 0.034, SamplesPerMeasurement: 1024}
	m, err := mote.New(mote.Config{ID: 0, ReportPeriodHours: 12, Energy: tiny, SamplesPerMeasurement: 64}, sensor, pump)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(m, 0); err != nil {
		t.Fatal(err)
	}
	srv.Advance(0.5) // the mote dies somewhere in here
	if m.State() != mote.StateDead {
		t.Fatalf("mote state %v", m.State())
	}
	if len(srv.DeadMotes()) != 0 {
		t.Fatal("server declared death before the timeout")
	}
	rep := srv.Advance(5)
	if len(rep.NewlyDead) != 1 || rep.NewlyDead[0] != 0 {
		t.Fatalf("NewlyDead = %v", rep.NewlyDead)
	}
	if got := srv.DeadMotes(); len(got) != 1 {
		t.Fatalf("DeadMotes = %v", got)
	}
	// Death is reported once.
	rep = srv.Advance(6)
	if len(rep.NewlyDead) != 0 {
		t.Fatal("death reported twice")
	}
}

func TestStatusReporting(t *testing.T) {
	srv, _ := newNetwork(t, 2, flush.LinkConfig{}, 12)
	srv.Advance(1)
	status := srv.Status()
	if len(status) != 2 {
		t.Fatalf("status rows: %d", len(status))
	}
	for i, st := range status {
		if st.ID != i {
			t.Fatalf("status order: %+v", status)
		}
		if st.Produced == 0 || st.Transfers == 0 {
			t.Fatalf("mote %d produced nothing: %+v", i, st)
		}
		if st.Dead {
			t.Fatalf("mote %d wrongly dead", i)
		}
		if st.BatteryJ <= 0 {
			t.Fatalf("mote %d battery %g", i, st.BatteryJ)
		}
	}
}

func TestSetReportPeriodViaServer(t *testing.T) {
	srv, motes := newNetwork(t, 1, flush.LinkConfig{}, 12)
	if err := srv.SetReportPeriod(0, 48); err != nil {
		t.Fatal(err)
	}
	if motes[0].ReportPeriodHours() != 48 {
		t.Fatal("period not applied")
	}
	if err := srv.SetReportPeriod(99, 48); err == nil {
		t.Fatal("unknown mote must error")
	}
	if err := srv.SetReportPeriod(0, 0); err == nil {
		t.Fatal("zero period must error")
	}
}

func TestAdvanceIsIncremental(t *testing.T) {
	srv, _ := newNetwork(t, 1, flush.LinkConfig{}, 24)
	rep1 := srv.Advance(1)
	rep2 := srv.Advance(1)
	if rep2.Stored != 0 {
		t.Fatalf("second advance to same time ingested %d", rep2.Stored)
	}
	if rep1.Stored == 0 {
		t.Fatal("first advance ingested nothing")
	}
}

func TestRegisterWithTDMASchedule(t *testing.T) {
	// A precomputed TDMA schedule overrides the naive stagger: offsets
	// and periods come from the scheduler.
	reqs := []sched.Request{
		{MoteID: 0, SlotSeconds: 30, MinPeriodSeconds: 3600},
		{MoteID: 1, SlotSeconds: 30, MinPeriodSeconds: 7 * 3600},
	}
	plan, err := sched.Build(reqs)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Slots: plan})
	for i := 0; i < 2; i++ {
		pump := physics.NewPump(physics.PumpConfig{ID: i, Seed: int64(i) + 60})
		sensor, _ := mems.New(mems.Config{Seed: int64(i) + 160})
		m, err := mote.New(mote.Config{ID: i, ReportPeriodHours: 1, SamplesPerMeasurement: 64}, sensor, pump)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Register(m, 0); err != nil {
			t.Fatal(err)
		}
		// The mote's period must match its schedule assignment.
		var want float64
		for _, a := range plan.Assignments {
			if a.MoteID == i {
				want = a.PeriodSeconds / 3600
			}
		}
		if m.ReportPeriodHours() != want {
			t.Fatalf("mote %d period %g h, want %g", i, m.ReportPeriodHours(), want)
		}
	}
	rep := srv.Advance(1)
	if rep.Stored == 0 {
		t.Fatal("scheduled network ingested nothing")
	}
	// Both motes report on the common 7 h frame, not the hourly period
	// they were built with: at most 4 captures each in a day.
	for _, st := range srv.Status() {
		if st.Produced == 0 || st.Produced > 4 {
			t.Fatalf("mote %d produced %d in a day on a 7 h frame", st.ID, st.Produced)
		}
	}
}
