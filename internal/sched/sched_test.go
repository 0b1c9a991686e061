package sched

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func reqs(n int, slot, minPeriod float64) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{MoteID: i, SlotSeconds: slot, MinPeriodSeconds: minPeriod}
	}
	return out
}

func slotMap(rs []Request) map[int]float64 {
	m := map[int]float64{}
	for _, r := range rs {
		m[r.MoteID] = r.SlotSeconds
	}
	return m
}

// collisions counts pairs of assignments whose slot occupancies overlap
// within the hyperperiod, given each mote's slot duration. A correct
// schedule returns 0.
func collisions(s *Schedule, slotSeconds map[int]float64) int {
	// Hyperperiod = max period.
	hyper := s.FrameSeconds
	for _, a := range s.Assignments {
		if a.PeriodSeconds > hyper {
			hyper = a.PeriodSeconds
		}
	}
	type interval struct{ lo, hi float64 }
	var all []interval
	var owners []int
	for _, a := range s.Assignments {
		dur := slotSeconds[a.MoteID]
		for t := a.OffsetSeconds; t < hyper-1e-9; t += a.PeriodSeconds {
			all = append(all, interval{t, t + dur})
			owners = append(owners, a.MoteID)
		}
	}
	count := 0
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if owners[i] == owners[j] {
				continue
			}
			if all[i].lo < all[j].hi-1e-9 && all[j].lo < all[i].hi-1e-9 {
				count++
			}
		}
	}
	return count
}

func TestBuildBasic(t *testing.T) {
	rs := reqs(5, 10, 3600)
	s, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	if s.FrameSeconds != 3600 {
		t.Fatalf("frame %g", s.FrameSeconds)
	}
	if len(s.Assignments) != 5 {
		t.Fatalf("assignments %d", len(s.Assignments))
	}
	if got := collisions(s, slotMap(rs)); got != 0 {
		t.Fatalf("collisions %d", got)
	}
	if s.Utilization <= 0 || s.Utilization > 1 {
		t.Fatalf("utilization %g", s.Utilization)
	}
	// All periods honor the minimum.
	for _, a := range s.Assignments {
		if a.PeriodSeconds < 3600 {
			t.Fatalf("mote %d period %g below minimum", a.MoteID, a.PeriodSeconds)
		}
	}
}

func TestBuildStretchesSaturatedFrame(t *testing.T) {
	// 100 motes × 60 s slots > 3600 s frame: the frame stretches so the
	// schedule stays collision-free (periods exceed minimums, which is
	// allowed).
	rs := reqs(100, 60, 3600)
	s, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	if s.FrameSeconds < 6000 {
		t.Fatalf("frame %g did not stretch", s.FrameSeconds)
	}
	if got := collisions(s, slotMap(rs)); got != 0 {
		t.Fatalf("collisions %d", got)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil); !errors.Is(err, ErrNoRequests) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Build([]Request{{MoteID: 0, SlotSeconds: 0, MinPeriodSeconds: 10}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
}

func TestSchedulePropertyNoCollisions(t *testing.T) {
	f := func(nSeed uint8, slotSeed, periodSeed uint16) bool {
		n := int(nSeed%12) + 1
		rs := make([]Request, n)
		for i := range rs {
			slot := 5 + float64((int(slotSeed)+i*7)%55)
			period := 1800 + float64((int(periodSeed)+i*131)%7200)
			rs[i] = Request{MoteID: i, SlotSeconds: slot, MinPeriodSeconds: period}
		}
		s, err := Build(rs)
		if err != nil {
			return false
		}
		return collisions(s, slotMap(rs)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasurementsPerDay(t *testing.T) {
	s := &Schedule{
		FrameSeconds: 3600,
		Assignments: []Assignment{
			{MoteID: 0, PeriodSeconds: 3600},
			{MoteID: 1, PeriodSeconds: 7200},
		},
	}
	if got := MeasurementsPerDay(s); math.Abs(got-36) > 1e-9 {
		t.Fatalf("rate %g, want 36", got)
	}
}
