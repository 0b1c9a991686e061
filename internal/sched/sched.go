// Package sched implements the sensor management server's wakeup-slot
// scheduling problem (paper §II, Fig. 4): each mote must be assigned a
// periodic wakeup slot long enough for its Flush transfer and heartbeat,
// no two slots may overlap on the shared radio channel, and the system
// wants to maximize the information collected subject to each mote's
// battery-driven minimum report period.
package sched

import (
	"errors"
	"fmt"
	"sort"
)

// Request describes one mote's scheduling needs.
type Request struct {
	// MoteID identifies the mote.
	MoteID int
	// SlotSeconds is how long the mote occupies the channel per wakeup
	// (sampling + Flush round + heartbeat).
	SlotSeconds float64
	// MinPeriodSeconds is the battery-driven lower bound on the report
	// period (from mote.EnergyModel.MinReportPeriod).
	MinPeriodSeconds float64
}

// Assignment is one mote's scheduled slot.
type Assignment struct {
	MoteID int
	// OffsetSeconds is the slot start within the frame.
	OffsetSeconds float64
	// PeriodSeconds is the assigned report period (= the frame length).
	PeriodSeconds float64
}

// Schedule is a complete non-overlapping assignment.
type Schedule struct {
	// FrameSeconds is the common period all motes share.
	FrameSeconds float64
	Assignments  []Assignment
	// Utilization is the fraction of the frame occupied by slots.
	Utilization float64
}

// Errors from the scheduler.
var (
	ErrNoRequests = errors.New("sched: no requests")
	ErrBadRequest = errors.New("sched: request needs positive slot and period")
)

// Build computes a common-frame schedule: the frame length is the
// largest minimum period among the motes (so every mote's battery
// constraint is satisfied — a longer period never hurts the battery)
// and slots are packed back to back. When the combined slot time
// exceeds that frame the frame stretches to it, so Build fails only on
// an empty or malformed request list.
func Build(reqs []Request) (*Schedule, error) {
	if len(reqs) == 0 {
		return nil, ErrNoRequests
	}
	var frame, busy float64
	for _, r := range reqs {
		if r.SlotSeconds <= 0 || r.MinPeriodSeconds <= 0 {
			return nil, fmt.Errorf("%w: mote %d", ErrBadRequest, r.MoteID)
		}
		if r.MinPeriodSeconds > frame {
			frame = r.MinPeriodSeconds
		}
		busy += r.SlotSeconds
	}
	if busy > frame {
		// The frame could be stretched to fit, but that would push
		// every mote past its minimum period — still feasible. Stretch.
		frame = busy
	}
	// Deterministic order: longest slots first (classic first-fit
	// decreasing), ties by mote id.
	order := append([]Request(nil), reqs...)
	sort.Slice(order, func(i, j int) bool {
		if order[i].SlotSeconds != order[j].SlotSeconds {
			return order[i].SlotSeconds > order[j].SlotSeconds
		}
		return order[i].MoteID < order[j].MoteID
	})
	s := &Schedule{FrameSeconds: frame}
	cursor := 0.0
	for _, r := range order {
		s.Assignments = append(s.Assignments, Assignment{
			MoteID:        r.MoteID,
			OffsetSeconds: cursor,
			PeriodSeconds: frame,
		})
		cursor += r.SlotSeconds
	}
	s.Utilization = busy / frame
	sort.Slice(s.Assignments, func(i, j int) bool {
		return s.Assignments[i].MoteID < s.Assignments[j].MoteID
	})
	return s, nil
}

// MeasurementsPerDay returns the total fleet measurement rate the
// schedule achieves — the "information collected" objective.
func MeasurementsPerDay(s *Schedule) float64 {
	var rate float64
	for _, a := range s.Assignments {
		rate += 86400 / a.PeriodSeconds
	}
	return rate
}
