// Package chaos is a seeded, deterministic fault-injection layer for
// the mote→flush→gateway→store ingestion pipeline. A Plan declares the
// adversity — escalated Gilbert-Elliott burst loss on the radio,
// transient mote crashes and permanent deaths, duplicated, delayed and
// corrupted deliveries, heartbeat gaps, store write errors — and an
// Injector applies it at the gateway's three named injection points
// ("flush.Link", "gateway.Server", "store.Measurements") through the
// gateway.Faults interface.
//
// Determinism is the design constraint: every fault decision for mote m
// is drawn from a private stream seeded by (Plan.Seed, m), so a chaos
// run produces bit-identical results regardless of how many goroutines
// ingest concurrently or how the scheduler interleaves them. The soak
// harness (cmd/vibechaos) and the golden-report test lean on this.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"vibepm/internal/flush"
	"vibepm/internal/gateway"
)

// LinkFaults is extra Gilbert-Elliott loss layered onto a mote's base
// radio channel at the "flush.Link" injection point. The zero value
// layers nothing.
type LinkFaults struct {
	// GoodLoss is the extra loss probability outside bursts.
	GoodLoss float64
	// BadLoss is the extra loss probability inside a burst.
	BadLoss float64
	// PGoodToBad is the per-frame probability of entering a burst.
	PGoodToBad float64
	// PBadToGood is the per-frame probability of leaving a burst.
	PBadToGood float64
}

func (f LinkFaults) active() bool {
	return f.GoodLoss > 0 || f.BadLoss > 0 || f.PGoodToBad > 0
}

// Plan is a declarative, seeded fault schedule. All probabilities are
// per-event (per wakeup slot, per store write attempt) and drawn from
// per-mote streams.
type Plan struct {
	// Name labels the plan in reports.
	Name string
	// Seed fixes every fault stream the plan drives.
	Seed int64
	// Link escalates radio loss on both directions of every mote's
	// channel.
	Link LinkFaults
	// CorruptProb flips payload bytes after the Flush CRC passed, per
	// delivered transfer.
	CorruptProb float64
	// DuplicateProb re-delivers a stored record, per stored transfer.
	DuplicateProb float64
	// DelayProb holds a delivered record for a later ingestion pass,
	// per delivered transfer (reordering).
	DelayProb float64
	// HeartbeatGapProb suppresses a completed heartbeat, per wakeup.
	HeartbeatGapProb float64
	// CrashProb loses a wakeup's measurement to a transient mote crash,
	// per wakeup.
	CrashProb float64
	// StoreErrProb fails one store write attempt, per attempt.
	StoreErrProb float64
	// KillAtDays schedules permanent mote deaths: mote id → the service
	// day at or after which its next wakeup kills it.
	KillAtDays map[int]float64
}

// ErrStoreInjected is the error injected store write failures carry.
var ErrStoreInjected = errors.New("chaos: injected store write error")

// Injector applies a Plan through the gateway.Faults interface. It is
// safe for concurrent use across motes: each mote's fault stream is
// independent and internally locked.
type Injector struct {
	plan Plan

	mu    sync.Mutex
	motes map[int]*moteStream
}

type moteStream struct {
	mu     sync.Mutex
	wakeup *rand.Rand // per-wakeup fault decisions
	storeF *rand.Rand // per-store-write decisions
	// Counters (for tests and reports).
	corrupted, duplicated, delayed, gaps, crashes, kills, storeErrs int
}

// NewInjector builds an injector for plan.
func NewInjector(plan Plan) *Injector {
	return &Injector{plan: plan, motes: make(map[int]*moteStream)}
}

func (in *Injector) stream(moteID int) *moteStream {
	in.mu.Lock()
	defer in.mu.Unlock()
	st, ok := in.motes[moteID]
	if !ok {
		base := in.plan.Seed ^ (int64(moteID)*0x9e3779b9 + 0x2545f491)
		st = &moteStream{
			wakeup: rand.New(rand.NewSource(base ^ 0x77)),
			storeF: rand.New(rand.NewSource(base ^ 0x5709)),
		}
		in.motes[moteID] = st
	}
	return st
}

// WrapLinks implements gateway.Faults: both directions get an
// independent escalated loss process layered on the base channel.
func (in *Injector) WrapLinks(moteID int, forward, reverse flush.Channel) (flush.Channel, flush.Channel) {
	if !in.plan.Link.active() {
		return forward, reverse
	}
	base := in.plan.Seed ^ (int64(moteID)*0x9e3779b9 + 0x2545f491)
	return wrapLink(forward, in.plan.Link, base^0x1ead),
		wrapLink(reverse, in.plan.Link, base^0x2ead)
}

func wrapLink(ch flush.Channel, f LinkFaults, seed int64) flush.Channel {
	extra := flush.NewLink(flush.LinkConfig{
		GoodLoss:   f.GoodLoss,
		BadLoss:    f.BadLoss,
		PGoodToBad: f.PGoodToBad,
		PBadToGood: f.PBadToGood,
		Seed:       seed,
	})
	return &lossyChannel{base: ch, extra: extra}
}

// lossyChannel multiplies the base channel's delivery decision with an
// escalated loss process. Both processes advance on every frame so the
// composition stays deterministic.
type lossyChannel struct {
	base  flush.Channel
	extra *flush.Link
}

func (c *lossyChannel) Deliver() bool {
	a := c.base.Deliver()
	b := c.extra.Deliver()
	return a && b
}

// OnWakeup implements gateway.Faults: one draw per fault class, in a
// fixed order, so the decision sequence is a pure function of
// (Plan.Seed, moteID, call index).
func (in *Injector) OnWakeup(moteID int, atDays float64) gateway.WakeupFaults {
	st := in.stream(moteID)
	st.mu.Lock()
	defer st.mu.Unlock()
	var wf gateway.WakeupFaults
	p := in.plan
	if kill, ok := p.KillAtDays[moteID]; ok && atDays >= kill {
		wf.KillMote = true
		st.kills++
		return wf
	}
	if p.HeartbeatGapProb > 0 && st.wakeup.Float64() < p.HeartbeatGapProb {
		wf.SuppressHeartbeat = true
		st.gaps++
	}
	if p.CrashProb > 0 && st.wakeup.Float64() < p.CrashProb {
		wf.CrashMote = true
		st.crashes++
		return wf
	}
	if p.CorruptProb > 0 && st.wakeup.Float64() < p.CorruptProb {
		st.corrupted++
		// The closure runs inside the gateway's retry loop under the
		// per-mote lock, so drawing from the wakeup stream stays
		// deterministic.
		wf.Corrupt = func(payload []byte) {
			st.mu.Lock()
			defer st.mu.Unlock()
			if len(payload) == 0 {
				return
			}
			flips := 1 + st.wakeup.Intn(4)
			for i := 0; i < flips; i++ {
				// Half the flips target the codec header so a good
				// fraction of corruptions are detectable (bad magic /
				// implausible counts) and drive the retry path; the
				// rest land in sample data and model corruption no
				// integrity layer catches.
				span := len(payload)
				if st.wakeup.Intn(2) == 0 && span > 30 {
					span = 30
				}
				pos := st.wakeup.Intn(span)
				payload[pos] ^= byte(1 + st.wakeup.Intn(255))
			}
		}
	}
	if p.DuplicateProb > 0 && st.wakeup.Float64() < p.DuplicateProb {
		wf.DuplicateDeliveries = 1 + st.wakeup.Intn(2)
		st.duplicated++
	}
	if p.DelayProb > 0 && st.wakeup.Float64() < p.DelayProb {
		wf.DelayDelivery = true
		st.delayed++
	}
	return wf
}

// OnStore implements gateway.Faults.
func (in *Injector) OnStore(moteID int) error {
	p := in.plan
	if p.StoreErrProb <= 0 {
		return nil
	}
	st := in.stream(moteID)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.storeF.Float64() < p.StoreErrProb {
		st.storeErrs++
		return ErrStoreInjected
	}
	return nil
}

// Counts aggregates the faults the injector actually fired, summed
// across motes.
type Counts struct {
	Corrupted  int `json:"corrupted"`
	Duplicated int `json:"duplicated"`
	Delayed    int `json:"delayed"`
	Gaps       int `json:"heartbeat_gaps"`
	Crashes    int `json:"crashes"`
	Kills      int `json:"kills"`
	StoreErrs  int `json:"store_errors"`
}

// Counts returns the fired-fault totals.
func (in *Injector) Counts() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	var c Counts
	for _, st := range in.motes {
		st.mu.Lock()
		c.Corrupted += st.corrupted
		c.Duplicated += st.duplicated
		c.Delayed += st.delayed
		c.Gaps += st.gaps
		c.Crashes += st.crashes
		c.Kills += st.kills
		c.StoreErrs += st.storeErrs
		st.mu.Unlock()
	}
	return c
}

// Preset returns a named fault plan. "none" is a clean baseline,
// "bursty" is the ≥20% correlated-loss radio of the paper's fab
// deployment, and "hostile" layers every fault class at once.
func Preset(name string, seed int64) (Plan, error) {
	switch name {
	case "none", "":
		return Plan{Name: "none", Seed: seed}, nil
	case "bursty":
		return Plan{
			Name: "bursty",
			Seed: seed,
			Link: LinkFaults{
				GoodLoss:   0.10,
				BadLoss:    0.65,
				PGoodToBad: 0.05,
				PBadToGood: 0.25,
			},
		}, nil
	case "hostile":
		return Plan{
			Name: "hostile",
			Seed: seed,
			Link: LinkFaults{
				GoodLoss:   0.12,
				BadLoss:    0.75,
				PGoodToBad: 0.06,
				PBadToGood: 0.20,
			},
			CorruptProb:      0.05,
			DuplicateProb:    0.10,
			DelayProb:        0.08,
			HeartbeatGapProb: 0.10,
			CrashProb:        0.03,
			StoreErrProb:     0.05,
		}, nil
	default:
		return Plan{}, fmt.Errorf("chaos: unknown preset %q (want none, bursty or hostile)", name)
	}
}
