// Package gateway implements the sensor management server of the
// paper's §II (Fig. 1 and Fig. 4): it registers motes at boot-up,
// assigns staggered wakeup slots, receives each measurement through the
// Flush bulk transport, tracks per-mote heartbeats (marking motes dead
// when heartbeats stop), and ingests reassembled measurements into the
// measurement database.
//
// The ingestion path is hardened against the failure modes the paper's
// fab deployment saw in the wild: transfers that fail past Flush's own
// NACK recovery are retried with exponential backoff and jitter, a mote
// that keeps failing is quarantined by a per-mote circuit breaker
// instead of being retried forever, store writes are idempotent so
// duplicated deliveries cannot inflate a series, and every produced
// measurement is accounted for in the IngestReport — delivered,
// retried, quarantined, or lost, never silently dropped. Fault
// injection (internal/chaos) hooks in through the Faults interface at
// three named points: the radio links, the wakeup slot, and the store
// write.
package gateway

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"vibepm/internal/flush"
	"vibepm/internal/mems"
	"vibepm/internal/mote"
	"vibepm/internal/obs"
	"vibepm/internal/par"
	"vibepm/internal/sched"
	"vibepm/internal/store"
	"vibepm/internal/stream"
)

// RetryConfig bounds the gateway's transfer and store-write retries.
// Backoff time is simulated (the network clock is the caller's nowDays),
// so the delays are accounted in IngestReport.BackoffSeconds rather than
// slept: the first retry waits retryBaseDelaySeconds, each further one
// doubles it up to retryMaxDelaySeconds, and every delay is spread by
// ±retryJitterFrac of itself.
type RetryConfig struct {
	// MaxAttempts is the total number of delivery attempts per
	// measurement, first try included (default 3, minimum 1).
	MaxAttempts int
	// Seed fixes the jitter streams (per-mote streams are derived).
	Seed int64
}

// The gateway's fixed timing: retry backoff, the per-mote circuit
// breaker, and the registration stagger.
const (
	// retryBaseDelaySeconds is the backoff before the first retry.
	retryBaseDelaySeconds = 5.0
	// retryMaxDelaySeconds caps the exponential growth.
	retryMaxDelaySeconds = 60.0
	// retryJitterFrac spreads each delay by ±frac·delay to decorrelate
	// retries across motes.
	retryJitterFrac = 0.2
	// breakerFailureThreshold is how many consecutive lost measurements
	// open a mote's circuit breaker: the mote is then quarantined
	// instead of burning the channel on retries that keep failing.
	breakerFailureThreshold = 5
	// breakerCooldownDays is how long an open breaker quarantines the
	// mote; after the cooldown the next measurement probes the channel
	// half-open.
	breakerCooldownDays = 0.5
	// slotSpacingHours staggers the wakeup slots assigned at
	// registration so motes do not collide on the channel (unless
	// Config.Slots assigns them).
	slotSpacingHours = 0.1
)

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	return c
}

// WakeupFaults is one wakeup slot's injected adversity, as decided by a
// Faults implementation. The zero value injects nothing.
type WakeupFaults struct {
	// SuppressHeartbeat hides a completed heartbeat from the server
	// (a heartbeat gap: the radio ate the liveness beacon).
	SuppressHeartbeat bool
	// CrashMote loses the slot's measurement to a transient mote crash;
	// the mote reboots and resumes its schedule.
	CrashMote bool
	// KillMote is permanent hardware death: the slot's measurement and
	// everything after it are lost and the mote never wakes again.
	KillMote bool
	// Corrupt, when non-nil, mutates the reassembled payload after the
	// Flush CRC check passed — corruption past the transport's
	// integrity layer, which only the decode/validation layer can
	// catch.
	Corrupt func(payload []byte)
	// DuplicateDeliveries re-delivers the stored record this many extra
	// times, exercising the store's idempotency.
	DuplicateDeliveries int
	// DelayDelivery holds the decoded record back and re-presents it on
	// a later ingestion pass — out-of-order arrival.
	DelayDelivery bool
}

// Faults is the fault-injection hook interface consumed by the server.
// Implementations (internal/chaos) must be safe for concurrent use
// across motes; calls for one mote are serialized by the per-mote lock.
type Faults interface {
	// WrapLinks interposes on a mote's radio channels at registration —
	// the "flush.Link" injection point.
	WrapLinks(moteID int, forward, reverse flush.Channel) (flush.Channel, flush.Channel)
	// OnWakeup decides the faults for one wakeup slot — the
	// "gateway.Server" injection point.
	OnWakeup(moteID int, atDays float64) WakeupFaults
	// OnStore is consulted before each store write; a non-nil error
	// fails that attempt — the "store.Measurements" injection point.
	OnStore(moteID int) error
}

// Config parameterizes the server.
type Config struct {
	// Durable, when non-nil, routes every ingest through the write-ahead
	// log: a measurement is acknowledged (counted Stored) only after its
	// WAL append succeeded, so an acked ingest survives a crash of the
	// server process. Nil ingests into a fresh in-memory store.
	Durable *store.Durable
	// Link configures the lossy radio channel between each mote and the
	// base station (per-mote links are derived with distinct seeds).
	Link flush.LinkConfig
	// Slots, when non-nil, assigns each mote the offset and period of a
	// precomputed TDMA schedule (see internal/sched) instead of the
	// naive stagger.
	Slots *sched.Schedule
	// Retry bounds per-measurement delivery retries.
	Retry RetryConfig
	// Faults, when non-nil, injects faults at the named points.
	Faults Faults
	// Workers caps the goroutines Advance fans out across motes
	// (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// Metrics receives the gateway's ingestion counters and fleet
	// gauges; nil selects obs.Default. A harness that needs per-run
	// numbers (vibechaos) passes its own registry.
	Metrics *obs.Registry
}

// Server is the sensor management server. It is safe for concurrent
// use: the registry lock guards only the mote map, and each mote's
// state (links, retry stream, breaker, heartbeat) is guarded by its own
// lock, so transfers of distinct motes proceed in parallel.
type Server struct {
	mu       sync.Mutex // guards motes map and registration order
	cfg      Config
	ingester stream.Ingester
	motes    map[int]*entry
	metrics  *gatewayMetrics
}

type entry struct {
	mu            sync.Mutex // guards everything below across a transfer
	id            int
	m             *mote.Mote
	forward       flush.Channel
	reverse       flush.Channel
	jitter        *rand.Rand
	lastHeartbeat float64
	dead          bool
	transfers     int
	failures      int
	// Circuit breaker state.
	consecFailures   int
	quarantinedUntil float64
	breakerTrips     int
	// Chaos-delayed records awaiting re-presentation.
	delayed []*store.Record
}

// IngestReport summarizes one Advance call. Every measurement a mote
// produced during the call lands in exactly one of Stored,
// TransferFailures, StoreFailures, Quarantined, CrashDrops, or Delayed
// — the accounting invariant the chaos soak asserts.
type IngestReport struct {
	// Stored counts measurements successfully delivered and ingested
	// (Recovered ⊆ Stored needed at least one retry; Reordered ⊆ Stored
	// arrived late after a delay).
	Stored int
	// Recovered counts measurements stored only after ≥ 1 retry.
	Recovered int
	// Reordered counts delayed records finally stored this call.
	Reordered int
	// Duplicates counts re-deliveries the idempotent store suppressed.
	Duplicates int
	// TransferFailures counts measurements lost to the radio channel
	// after exhausting the retry budget.
	TransferFailures int
	// StoreFailures counts measurements delivered but lost to
	// persistent store write errors.
	StoreFailures int
	// Quarantined counts measurements skipped while a mote's breaker
	// was open.
	Quarantined int
	// CrashDrops counts measurements lost to injected mote crashes.
	CrashDrops int
	// Delayed counts records held back by fault injection this call
	// (they surface later as Reordered).
	Delayed int
	// Retries counts extra transfer attempts beyond each first try.
	Retries int
	// RetryHistogram maps attempts-used to measurement count for every
	// measurement that completed its delivery decision this call.
	RetryHistogram map[int]int
	// BackoffSeconds totals the simulated backoff delay.
	BackoffSeconds float64
	// BreakerTrips counts breaker openings.
	BreakerTrips int
	// PacketsSent totals the link-layer frames, retransmissions
	// included.
	PacketsSent int
	// Retransmissions totals retransmitted data packets.
	Retransmissions int
	// NewlyDead lists motes first marked dead during this call.
	NewlyDead []int
	// Revived lists motes whose heartbeat returned after the server had
	// marked them dead (a heartbeat gap, not a real death).
	Revived []int
}

func (r *IngestReport) merge(o IngestReport) {
	r.Stored += o.Stored
	r.Recovered += o.Recovered
	r.Reordered += o.Reordered
	r.Duplicates += o.Duplicates
	r.TransferFailures += o.TransferFailures
	r.StoreFailures += o.StoreFailures
	r.Quarantined += o.Quarantined
	r.CrashDrops += o.CrashDrops
	r.Delayed += o.Delayed
	r.Retries += o.Retries
	r.BackoffSeconds += o.BackoffSeconds
	r.BreakerTrips += o.BreakerTrips
	r.PacketsSent += o.PacketsSent
	r.Retransmissions += o.Retransmissions
	r.NewlyDead = append(r.NewlyDead, o.NewlyDead...)
	r.Revived = append(r.Revived, o.Revived...)
	for k, v := range o.RetryHistogram {
		if r.RetryHistogram == nil {
			r.RetryHistogram = make(map[int]int)
		}
		r.RetryHistogram[k] += v
	}
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	var st *store.Measurements
	if cfg.Durable != nil {
		st = cfg.Durable.Store()
	} else {
		st = store.NewMeasurements()
	}
	cfg.Retry = cfg.Retry.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	return &Server{
		cfg:      cfg,
		ingester: stream.Ingester{Store: st, Durable: cfg.Durable},
		motes:    make(map[int]*entry),
		metrics:  newGatewayMetrics(reg),
	}
}

// Store returns the measurement database the server ingests into.
func (s *Server) Store() *store.Measurements { return s.ingester.Store }

// ErrDuplicateMote is returned when registering an id twice.
var ErrDuplicateMote = errors.New("gateway: mote already registered")

// ErrUnknownMote is returned when addressing an unregistered mote.
var ErrUnknownMote = errors.New("gateway: unknown mote")

// Register handles a mote's boot-up notification: the server assigns
// its first wakeup slot (staggered by registration order) and boots it.
func (s *Server) Register(m *mote.Mote, startDays float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := m.ID()
	if _, ok := s.motes[id]; ok {
		return ErrDuplicateMote
	}
	slot := startDays + float64(len(s.motes))*slotSpacingHours/24
	if s.cfg.Slots != nil {
		for _, a := range s.cfg.Slots.Assignments {
			if a.MoteID == id {
				slot = startDays + a.OffsetSeconds/86400
				if err := m.SetReportPeriod(a.PeriodSeconds / 3600); err != nil {
					return fmt.Errorf("gateway: schedule for mote %d: %w", id, err)
				}
				break
			}
		}
	}
	m.Boot(slot)
	var forward, reverse flush.Channel
	forward = flush.NewLink(withSeed(s.cfg.Link, int64(id)*2+1))
	reverse = flush.NewLink(withSeed(s.cfg.Link, int64(id)*2+2))
	if s.cfg.Faults != nil {
		forward, reverse = s.cfg.Faults.WrapLinks(id, forward, reverse)
	}
	s.motes[id] = &entry{
		id:            id,
		m:             m,
		forward:       forward,
		reverse:       reverse,
		jitter:        rand.New(rand.NewSource(s.cfg.Retry.Seed ^ (int64(id)*0x9e3779b9 + 0x7f4a7c15))),
		lastHeartbeat: slot,
	}
	return nil
}

func withSeed(cfg flush.LinkConfig, delta int64) flush.LinkConfig {
	cfg.Seed += delta
	return cfg
}

// entries snapshots the registry in id order.
func (s *Server) entries() []*entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*entry, 0, len(s.motes))
	for _, e := range s.motes {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// Advance moves the whole network to nowDays: every registered mote
// executes its due wakeup slots, each produced measurement crosses the
// Flush channel (with bounded retries) and, if delivered intact, is
// ingested idempotently. Heartbeats are tracked and overdue motes are
// marked dead. Motes advance in parallel — each under its own lock —
// and the merged report is deterministic because every per-mote
// randomness stream is independent of goroutine scheduling.
func (s *Server) Advance(nowDays float64) IngestReport {
	ents := s.entries()
	reports := par.Map(len(ents), s.cfg.Workers, func(i int) IngestReport {
		return s.advanceEntry(ents[i], nowDays)
	})
	var merged IngestReport
	for _, rep := range reports {
		merged.merge(rep)
	}
	s.metrics.observeReport(merged)
	s.updateFleetGauges(nowDays)
	return merged
}

// AdvanceMote advances a single mote to nowDays — the entry point a
// concurrent ingestion front-end (one goroutine per mote) drives
// directly.
func (s *Server) AdvanceMote(moteID int, nowDays float64) (IngestReport, error) {
	s.mu.Lock()
	e, ok := s.motes[moteID]
	s.mu.Unlock()
	if !ok {
		return IngestReport{}, fmt.Errorf("%w: %d", ErrUnknownMote, moteID)
	}
	rep := s.advanceEntry(e, nowDays)
	s.metrics.observeReport(rep)
	return rep, nil
}

func (s *Server) advanceEntry(e *entry, nowDays float64) IngestReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	rep := IngestReport{RetryHistogram: make(map[int]int)}
	// Chaos-delayed records from earlier passes arrive first — out of
	// order relative to the measurements ingested since; the sorted
	// store absorbs them.
	s.drainDelayedLocked(e, &rep)
	wakeups := e.m.Advance(nowDays)
	for wi, w := range wakeups {
		var wf WakeupFaults
		if s.cfg.Faults != nil {
			wf = s.cfg.Faults.OnWakeup(e.id, w.AtDays)
		}
		if w.Heartbeat && !wf.SuppressHeartbeat {
			e.lastHeartbeat = w.AtDays
			if e.dead {
				// The "death" was a heartbeat gap; the mote is back.
				e.dead = false
				rep.Revived = append(rep.Revived, e.id)
			}
		}
		if wf.KillMote {
			e.m.Kill()
			// Account this and every remaining measurement of the batch
			// before abandoning it.
			for _, rest := range wakeups[wi:] {
				if rest.Measurement != nil {
					rep.CrashDrops++
				}
			}
			break
		}
		if w.Measurement == nil {
			continue
		}
		if wf.CrashMote {
			rep.CrashDrops++
			continue
		}
		if w.AtDays < e.quarantinedUntil {
			// Breaker open: the measurement is skipped, not retried —
			// and reported, not silently dropped.
			rep.Quarantined++
			continue
		}
		rec := recordFromMeasurement(e.id, w.Measurement)
		payload, err := encodePayload(rec)
		if err != nil {
			rep.TransferFailures++
			e.failures++
			continue
		}
		got, attempts, ok := s.transferWithRetry(e, payload, wf.Corrupt, &rep)
		rep.RetryHistogram[attempts]++
		e.transfers++
		if !ok {
			rep.TransferFailures++
			e.failures++
			e.consecFailures++
			if e.consecFailures >= breakerFailureThreshold {
				e.quarantinedUntil = w.AtDays + breakerCooldownDays
				e.consecFailures = 0
				e.breakerTrips++
				rep.BreakerTrips++
			}
			continue
		}
		e.consecFailures = 0
		if attempts > 1 {
			rep.Recovered++
		}
		if wf.DelayDelivery {
			e.delayed = append(e.delayed, got)
			rep.Delayed++
			continue
		}
		stored := s.storeWithRetry(e, got, &rep)
		for d := 0; stored && d < wf.DuplicateDeliveries; d++ {
			dup, err := s.ingester.Ingest(got)
			if err != nil {
				// A durable ingest failure is a store failure wherever it
				// happens — the duplicate-delivery path must not swallow
				// the accounting that storeWithRetry does.
				rep.StoreFailures++
				break
			}
			if !dup {
				rep.Duplicates++
			}
		}
	}
	// Liveness: a mote whose last heartbeat is more than two report
	// periods old is marked dead.
	timeout := 2 * e.m.ReportPeriodHours() / 24
	if !e.dead && nowDays-e.lastHeartbeat > timeout {
		e.dead = true
		rep.NewlyDead = append(rep.NewlyDead, e.id)
	}
	return rep
}

// transferWithRetry drives one measurement across the Flush channel
// with bounded exponential backoff. corrupt, when non-nil, mutates each
// reassembled payload past the CRC — the decode/validation layer must
// catch it, and a caught corruption costs a retry like any loss.
func (s *Server) transferWithRetry(e *entry, payload []byte, corrupt func([]byte), rep *IngestReport) (*store.Record, int, bool) {
	cfg := s.cfg.Retry
	delay := retryBaseDelaySeconds
	for attempt := 1; ; attempt++ {
		delivered, stats, err := flush.Transfer(payload, e.forward, e.reverse)
		rep.PacketsSent += stats.PacketsSent
		rep.Retransmissions += stats.Retransmissions
		if err == nil {
			if corrupt != nil {
				corrupt(delivered)
			}
			rec, derr := decodePayload(delivered)
			// A record claiming another mote's pump id is corruption
			// that survived both the CRC and the codec framing.
			if derr == nil && rec.PumpID == e.id {
				return rec, attempt, true
			}
		}
		if attempt >= cfg.MaxAttempts {
			return nil, attempt, false
		}
		rep.Retries++
		rep.BackoffSeconds += jittered(delay, e.jitter)
		delay *= 2
		if delay > retryMaxDelaySeconds {
			delay = retryMaxDelaySeconds
		}
	}
}

// storeWithRetry ingests one record, retrying injected store write
// errors — and real WAL append errors — under the same backoff budget
// as transfers. The measurement counts Stored only after the write is
// acknowledged, which on the durable path means the WAL frame is on
// disk per the configured fsync policy.
func (s *Server) storeWithRetry(e *entry, rec *store.Record, rep *IngestReport) bool {
	cfg := s.cfg.Retry
	delay := retryBaseDelaySeconds
	for attempt := 1; ; attempt++ {
		var err error
		if s.cfg.Faults != nil {
			err = s.cfg.Faults.OnStore(e.id)
		}
		var stored bool
		if err == nil {
			stored, err = s.ingester.Ingest(rec)
		}
		if err == nil {
			if stored {
				rep.Stored++
			} else {
				rep.Duplicates++
			}
			return true
		}
		if errors.Is(err, store.ErrRecordTooLarge) || errors.Is(err, stream.ErrInvalidRecord) {
			// Permanent per-record rejection, not a transient store
			// fault: retrying cannot help.
			rep.StoreFailures++
			return false
		}
		if attempt >= cfg.MaxAttempts {
			rep.StoreFailures++
			return false
		}
		rep.Retries++
		rep.BackoffSeconds += jittered(delay, e.jitter)
		delay *= 2
		if delay > retryMaxDelaySeconds {
			delay = retryMaxDelaySeconds
		}
	}
}

func jittered(delay float64, rng *rand.Rand) float64 {
	return delay * (1 + retryJitterFrac*(2*rng.Float64()-1))
}

// drainDelayedLocked stores every chaos-delayed record of e. Caller
// holds e.mu.
func (s *Server) drainDelayedLocked(e *entry, rep *IngestReport) {
	for _, rec := range e.delayed {
		if s.storeWithRetry(e, rec, rep) {
			rep.Reordered++
		}
	}
	e.delayed = e.delayed[:0]
}

// Drain flushes every outstanding chaos-delayed record into the store —
// the end-of-run pass a soak harness uses so nothing stays in flight.
func (s *Server) Drain() IngestReport {
	var merged IngestReport
	for _, e := range s.entries() {
		e.mu.Lock()
		rep := IngestReport{RetryHistogram: make(map[int]int)}
		s.drainDelayedLocked(e, &rep)
		e.mu.Unlock()
		merged.merge(rep)
	}
	s.metrics.observeReport(merged)
	return merged
}

// recordFromMeasurement converts a sensor capture into a store record.
func recordFromMeasurement(pumpID int, m *mems.Measurement) *store.Record {
	rec := &store.Record{
		PumpID:       pumpID,
		ServiceDays:  m.ServiceDays,
		SampleRateHz: m.SampleRateHz,
		ScaleG:       m.ScaleG,
	}
	for axis := 0; axis < mems.Axes; axis++ {
		rec.Raw[axis] = m.Raw[axis]
	}
	return rec
}

// payloadBufPool recycles the encode scratch buffer across transfers:
// the returned payload is one exact-size copy instead of the growth
// garbage a fresh bytes.Buffer leaves behind per record.
var payloadBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func encodePayload(rec *store.Record) ([]byte, error) {
	buf := payloadBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := store.EncodeRecord(buf, rec); err != nil {
		payloadBufPool.Put(buf)
		return nil, fmt.Errorf("gateway: encode: %w", err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	payloadBufPool.Put(buf)
	return out, nil
}

func decodePayload(payload []byte) (*store.Record, error) {
	rec, err := store.DecodeRecord(payload)
	if err != nil {
		return nil, fmt.Errorf("gateway: decode: %w", err)
	}
	return rec, nil
}

// MoteStatus reports one mote's health as seen by the server.
type MoteStatus struct {
	ID            int
	State         mote.State
	Dead          bool
	LastHeartbeat float64
	BatteryJ      float64
	Transfers     int
	Failures      int
	Produced      int
	// Quarantined reports whether the mote's breaker was open at the
	// last observed wakeup.
	Quarantined bool
	// BreakerTrips counts how often the breaker opened.
	BreakerTrips int
}

// Status returns the status of every registered mote, ordered by id.
func (s *Server) Status() []MoteStatus {
	ents := s.entries()
	out := make([]MoteStatus, 0, len(ents))
	for _, e := range ents {
		e.mu.Lock()
		out = append(out, MoteStatus{
			ID:            e.id,
			State:         e.m.State(),
			Dead:          e.dead,
			LastHeartbeat: e.lastHeartbeat,
			BatteryJ:      e.m.BatteryJ(),
			Transfers:     e.transfers,
			Failures:      e.failures,
			Produced:      e.m.Produced(),
			Quarantined:   e.m.NextWakeDays() < e.quarantinedUntil,
			BreakerTrips:  e.breakerTrips,
		})
		e.mu.Unlock()
	}
	return out
}

// DeadMotes lists the ids the server has marked dead.
func (s *Server) DeadMotes() []int {
	var out []int
	for _, st := range s.Status() {
		if st.Dead {
			out = append(out, st.ID)
		}
	}
	return out
}

// SetReportPeriod forwards a schedule change to a registered mote —
// the server-side control path used by the adaptive scheduler.
func (s *Server) SetReportPeriod(moteID int, hours float64) error {
	s.mu.Lock()
	e, ok := s.motes[moteID]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownMote, moteID)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m.SetReportPeriod(hours)
}
