package gateway

import (
	"errors"
	"testing"

	"vibepm/internal/flush"
	"vibepm/internal/mems"
	"vibepm/internal/mote"
	"vibepm/internal/physics"
)

// fakeFaults is a scriptable Faults implementation for unit tests.
type fakeFaults struct {
	wrap    func(moteID int, fwd, rev flush.Channel) (flush.Channel, flush.Channel)
	wakeup  func(moteID int, atDays float64) WakeupFaults
	onStore func(moteID int) error
}

func (f *fakeFaults) WrapLinks(id int, fwd, rev flush.Channel) (flush.Channel, flush.Channel) {
	if f.wrap == nil {
		return fwd, rev
	}
	return f.wrap(id, fwd, rev)
}

func (f *fakeFaults) OnWakeup(id int, at float64) WakeupFaults {
	if f.wakeup == nil {
		return WakeupFaults{}
	}
	return f.wakeup(id, at)
}

func (f *fakeFaults) OnStore(id int) error {
	if f.onStore == nil {
		return nil
	}
	return f.onStore(id)
}

// deadChannel drops every frame — a radio that went silent.
type deadChannel struct{}

func (deadChannel) Deliver() bool { return false }

// flakyChannel drops everything until reviveAfter calls, then delivers.
type flakyChannel struct {
	base  flush.Channel
	calls int
	dead  int // frames dropped before the channel heals
}

func (c *flakyChannel) Deliver() bool {
	c.calls++
	ok := c.base.Deliver()
	if c.calls <= c.dead {
		return false
	}
	return ok
}

func newTestServer(t *testing.T, n int, cfg Config, reportHours float64) (*Server, []*mote.Mote) {
	t.Helper()
	srv := New(cfg)
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
			SamplesPerMeasurement: 64,
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

func TestRetryRecoversFlakyChannel(t *testing.T) {
	// The forward channel eats the first whole transfer's worth of
	// frames, so attempt 1 fails and a retry succeeds.
	faults := &fakeFaults{
		wrap: func(id int, fwd, rev flush.Channel) (flush.Channel, flush.Channel) {
			// 64 rounds × ~9 packets ≈ the first attempt's traffic.
			return &flakyChannel{base: fwd, dead: flush.MaxRounds * 10}, rev
		},
	}
	srv, _ := newTestServer(t, 1, Config{
		Faults: faults,
		Retry:  RetryConfig{MaxAttempts: 3},
	}, 24)
	rep := srv.Advance(1)
	produced := srv.Status()[0].Produced
	if rep.Stored != produced {
		t.Fatalf("stored = %d, want %d (report %+v)", rep.Stored, produced, rep)
	}
	if rep.Recovered == 0 || rep.Retries == 0 {
		t.Fatalf("expected a recovery via retry: %+v", rep)
	}
	if rep.BackoffSeconds <= 0 {
		t.Fatalf("retries must accrue backoff, got %g", rep.BackoffSeconds)
	}
	if rep.RetryHistogram[1] != 0 && rep.RetryHistogram[2] == 0 {
		t.Fatalf("retry histogram %+v", rep.RetryHistogram)
	}
}

func TestBreakerQuarantinesDeadRadio(t *testing.T) {
	faults := &fakeFaults{
		wrap: func(id int, fwd, rev flush.Channel) (flush.Channel, flush.Channel) {
			return deadChannel{}, rev
		},
	}
	srv, _ := newTestServer(t, 1, Config{
		Faults: faults,
		Retry:  RetryConfig{MaxAttempts: 2},
	}, 6) // 4 wakeups/day, the first at day 0
	// The wakeups at days 0 … 1.0 are the breakerFailureThreshold
	// consecutive losses that open the breaker; the next wakeup (1.25)
	// falls inside the cooldown.
	first := srv.Advance(1.1)
	if first.TransferFailures != breakerFailureThreshold || first.BreakerTrips != 1 {
		t.Fatalf("want the breaker open after %d losses: %+v", breakerFailureThreshold, first)
	}
	if !srv.Status()[0].Quarantined {
		t.Fatal("status must report the open breaker")
	}
	rep := srv.Advance(5)
	rep.merge(first)
	if rep.Stored != 0 {
		t.Fatalf("stored over a dead radio: %+v", rep)
	}
	if rep.Quarantined == 0 {
		t.Fatal("no measurements quarantined after the breaker opened")
	}
	// Accounting: every produced measurement is a failure or quarantined.
	st := srv.Status()[0]
	if got := rep.TransferFailures + rep.Quarantined; got != st.Produced {
		t.Fatalf("accounting: failures %d + quarantined %d != produced %d",
			rep.TransferFailures, rep.Quarantined, st.Produced)
	}
	// The breaker bounds attempts: fewer transfers than wakeups hit the
	// channel.
	if st.Transfers >= st.Produced {
		t.Fatalf("breaker did not shed load: %d transfers for %d produced", st.Transfers, st.Produced)
	}
}

func TestBreakerHalfOpenRecovers(t *testing.T) {
	// Every delivery is corrupted past the CRC until day 1.1: the first
	// breakerFailureThreshold measurements are lost and open the
	// breaker. After the cooldown the half-open probe must succeed and
	// ingestion resumes.
	faults := &fakeFaults{
		wakeup: func(id int, at float64) WakeupFaults {
			if at >= 1.1 {
				return WakeupFaults{}
			}
			return WakeupFaults{Corrupt: func(p []byte) { p[0] ^= 0xFF }}
		},
	}
	srv, _ := newTestServer(t, 1, Config{
		Faults: faults,
		Retry:  RetryConfig{MaxAttempts: 2},
	}, 6)
	if rep := srv.Advance(1.1); rep.BreakerTrips != 1 || rep.TransferFailures != breakerFailureThreshold {
		t.Fatalf("want the breaker open after %d losses: %+v", breakerFailureThreshold, rep)
	}
	rep := srv.Advance(4)
	if rep.Quarantined == 0 {
		t.Fatalf("no measurement waited out the cooldown: %+v", rep)
	}
	if rep.Stored == 0 || rep.BreakerTrips != 0 {
		t.Fatalf("ingestion never resumed after the channel healed: %+v", rep)
	}
}

func TestDuplicateDeliveriesSuppressed(t *testing.T) {
	faults := &fakeFaults{
		wakeup: func(id int, at float64) WakeupFaults {
			return WakeupFaults{DuplicateDeliveries: 2}
		},
	}
	srv, _ := newTestServer(t, 1, Config{Faults: faults}, 12)
	rep := srv.Advance(2)
	if rep.Stored == 0 {
		t.Fatal("nothing stored")
	}
	if rep.Duplicates != 2*rep.Stored {
		t.Fatalf("duplicates %d, want %d", rep.Duplicates, 2*rep.Stored)
	}
	if got := srv.Store().Len(); got != rep.Stored {
		t.Fatalf("store holds %d records, want %d — duplicates leaked in", got, rep.Stored)
	}
}

func TestDelayedDeliveryReordersNotLoses(t *testing.T) {
	delayed := 0
	faults := &fakeFaults{
		wakeup: func(id int, at float64) WakeupFaults {
			// Delay every other measurement.
			delayed++
			return WakeupFaults{DelayDelivery: delayed%2 == 0}
		},
	}
	srv, _ := newTestServer(t, 1, Config{Faults: faults}, 6)
	rep1 := srv.Advance(1)
	rep2 := srv.Advance(2)
	drain := srv.Drain()
	stored := rep1.Stored + rep2.Stored + drain.Stored
	reordered := rep1.Reordered + rep2.Reordered + drain.Reordered
	produced := srv.Status()[0].Produced
	if stored != produced {
		t.Fatalf("stored %d != produced %d (reordered %d)", stored, produced, reordered)
	}
	if reordered == 0 {
		t.Fatal("no record took the delayed path")
	}
	// The store must come out time-ordered despite the reordering.
	recs := srv.Store().All(0)
	for i := 1; i < len(recs); i++ {
		if recs[i-1].ServiceDays >= recs[i].ServiceDays {
			t.Fatalf("store out of order at %d: %g >= %g", i, recs[i-1].ServiceDays, recs[i].ServiceDays)
		}
	}
}

func TestStoreErrorsRetriedThenCounted(t *testing.T) {
	calls := 0
	faults := &fakeFaults{
		onStore: func(id int) error {
			calls++
			if calls <= 1 {
				return errors.New("transient store error")
			}
			return nil
		},
	}
	srv, _ := newTestServer(t, 1, Config{
		Faults: faults,
		Retry:  RetryConfig{MaxAttempts: 3},
	}, 24)
	rep := srv.Advance(1)
	produced := srv.Status()[0].Produced
	if rep.Stored != produced || rep.StoreFailures != 0 || rep.Retries == 0 {
		t.Fatalf("transient store error must be retried: %+v", rep)
	}

	// A permanent store outage exhausts the budget and is reported.
	srvDown, _ := newTestServer(t, 1, Config{
		Faults: &fakeFaults{onStore: func(int) error { return errors.New("store down") }},
		Retry:  RetryConfig{MaxAttempts: 2},
	}, 24)
	rep = srvDown.Advance(1)
	produced = srvDown.Status()[0].Produced
	if rep.Stored != 0 || rep.StoreFailures != produced {
		t.Fatalf("permanent store outage: %+v", rep)
	}
}

func TestCorruptionPastCRCCaughtAndRetried(t *testing.T) {
	// Corrupt the codec magic on the first attempt only: decode fails,
	// the retry delivers clean.
	attempt := 0
	faults := &fakeFaults{
		wakeup: func(id int, at float64) WakeupFaults {
			attempt = 0
			return WakeupFaults{Corrupt: func(p []byte) {
				attempt++
				if attempt == 1 && len(p) > 0 {
					p[0] ^= 0xFF
				}
			}}
		},
	}
	srv, _ := newTestServer(t, 1, Config{
		Faults: faults,
		Retry:  RetryConfig{MaxAttempts: 3},
	}, 24)
	rep := srv.Advance(1)
	produced := srv.Status()[0].Produced
	if rep.Stored != produced {
		t.Fatalf("corrupted-then-clean measurement lost: %+v", rep)
	}
	if rep.Recovered != produced {
		t.Fatalf("every corrupted decode must cost a retry: %+v", rep)
	}
}

func TestKillMoteAccountsRemainingBatch(t *testing.T) {
	faults := &fakeFaults{
		wakeup: func(id int, at float64) WakeupFaults {
			return WakeupFaults{KillMote: at >= 1}
		},
	}
	srv, motes := newTestServer(t, 1, Config{Faults: faults}, 6)
	rep := srv.Advance(3) // several wakeups land past the kill point
	if motes[0].State() != mote.StateDead {
		t.Fatalf("mote state %v after kill", motes[0].State())
	}
	produced := srv.Status()[0].Produced
	if got := rep.Stored + rep.CrashDrops; got != produced {
		t.Fatalf("kill dropped measurements silently: stored %d + crashDrops %d != produced %d",
			rep.Stored, rep.CrashDrops, produced)
	}
	if rep.CrashDrops == 0 {
		t.Fatal("kill must account the doomed measurement")
	}
}

func TestHeartbeatGapRevival(t *testing.T) {
	// Suppress heartbeats for two days: the server declares the mote
	// dead once two 12 h report periods pass without one, then revives
	// it when heartbeats return.
	faults := &fakeFaults{
		wakeup: func(id int, at float64) WakeupFaults {
			return WakeupFaults{SuppressHeartbeat: at < 2}
		},
	}
	srv, _ := newTestServer(t, 1, Config{Faults: faults}, 12)
	rep := srv.Advance(1.9)
	if len(rep.NewlyDead) != 1 {
		t.Fatalf("heartbeat gap must trigger a death verdict: %+v", rep)
	}
	rep = srv.Advance(4)
	if len(rep.Revived) != 1 || rep.Revived[0] != 0 {
		t.Fatalf("returning heartbeat must revive the mote: %+v", rep)
	}
	if len(srv.DeadMotes()) != 0 {
		t.Fatal("mote still marked dead after revival")
	}
}

func TestAdvanceMoteUnknown(t *testing.T) {
	srv, _ := newTestServer(t, 1, Config{}, 12)
	if _, err := srv.AdvanceMote(42, 1); !errors.Is(err, ErrUnknownMote) {
		t.Fatalf("err = %v", err)
	}
}
