package chaos

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"

	"vibepm/internal/feature"
	"vibepm/internal/store"
	"vibepm/internal/stream"
	"vibepm/internal/transform"
)

// A crash trial runs a seeded schedule of steps over a subject: the
// nodes whose every write goes through one CrashBudget. After each step
// the subject reacts to a budget that has fired, then every standing
// check runs on every live node. stream is the one seeded ingest loop,
// at one writer or at k.

// stepKind names one move of a schedule.
type stepKind int

const (
	stepStream     stepKind = iota // ingest a seeded stream
	stepCheckpoint                 // checkpoint every live node
	stepReingest                   // re-send every attempted record
	stepClose                      // reboot by a clean close
	stepAbort                      // reboot by an abort
)

// step is one move of a schedule. A stream step runs writers (at least
// one) concurrent writers of records records each, checkpointing after
// every every-th ack (0 never).
type step struct {
	kind                    stepKind
	records, writers, every int
}

// subject is what a trial crashes.
type subject interface {
	// ingest stores one record; stored is false for a duplicate.
	ingest(rec *store.Record) (stored bool, err error)
	checkpoint() error
	// fire is the subject's move once the budget fired; it returns the
	// trial's Fired. A subject left with no live node ends the stream.
	fire() (any, error)
	// reboot closes (clean) or aborts every live node and reopens the
	// survivors from disk with no budget. A crash in the close is one
	// the reopen recovers from.
	reboot(clean bool) error
	nodes() []trialNode
	abort()
}

// trialNode is one live node as the checks see it.
type trialNode struct {
	dir  string
	hot  *store.Measurements
	cold *store.ColdStore // nil when untiered
	live *stream.LiveState
}

// trialConfig is one crash trial: a subject over a fresh directory,
// every write of it through a budget cut after cut bytes (<= 0 never),
// and the schedule run on it. Writer w's stream is seeded seed+w. The
// other fields configure every durable store of the subject.
type trialConfig struct {
	open          func(dir string, b *CrashBudget, cfg trialConfig) (subject, error)
	schedule      []step
	seed, cut     int64
	tiered        bool
	segmentBytes  int64
	policy        store.SyncPolicy
	replayWorkers int
}

// durable is the store options cfg gives every node, with no budget.
func (cfg trialConfig) durable() store.DurableOptions {
	opts := store.DurableOptions{
		WAL:           store.WALOptions{SegmentBytes: cfg.segmentBytes, Policy: cfg.policy},
		ReplayWorkers: cfg.replayWorkers,
	}
	if cfg.tiered {
		// Four records a day: a 4-day hot window, 2-day partitions of
		// one scalar stream, as a deployment's partitions carry.
		opts.Tiered = &store.TieredOptions{HotWindowDays: 4, PartitionDays: 2, Metrics: []store.ColdMetric{
			{Name: "first", Fn: func(r *store.Record) float64 { return float64(r.Raw[0][0]) }},
		}}
	}
	return opts
}

// trialResult reports one trial. Attempted, Acked and Failed count the
// stream steps' ingests; Held is the live nodes' hot ∪ cold record count
// at each check (a subject with no live node is not checked); Bytes is
// what the budget counted by the end of the last stream step, the span
// a sweep cuts; Temps locates every temp file written through the
// budget; Fired is what the subject's fire returned.
type trialResult struct {
	Attempted, Acked, Failed int
	Held                     []int
	Crashed                  bool
	CutKind                  FileKind
	Bytes                    int64
	Temps                    []TempSpan
	Fired                    any
}

type trial struct {
	cfg    trialConfig
	budget *CrashBudget
	s      subject

	mu               sync.Mutex // guards what follows
	attempted, acked []*store.Record
	reacted, down    bool
	res              trialResult
}

// runTrial runs cfg over dir. A non-nil error is a broken check, or a
// failure the budget did not cause.
func runTrial(dir string, cfg trialConfig) (trialResult, error) {
	t := &trial{cfg: cfg, budget: NewCrashBudget(cfg.cut)}
	s, err := cfg.open(dir, t.budget, cfg)
	if err != nil {
		return t.res, fmt.Errorf("open: %w", err)
	}
	t.s = s
	defer s.abort()
	err = t.react()
	for i := 0; err == nil && i < len(cfg.schedule); i++ {
		if err = t.do(cfg.schedule[i]); err == nil {
			err = t.react()
		}
		if err == nil {
			err = t.check()
		}
		if err != nil {
			err = fmt.Errorf("step %d: %w", i, err)
		}
	}
	t.res.Crashed, t.res.CutKind, t.res.Temps = t.budget.Crashed(), t.budget.cutKind, t.budget.temps
	return t.res, err
}

// do runs one step; a subject that is down waits for its reboot.
func (t *trial) do(st step) error {
	if t.down && st.kind < stepClose {
		return nil
	}
	switch st.kind {
	case stepStream:
		err := t.stream(st)
		t.res.Bytes = t.budget.Written()
		return err
	case stepCheckpoint:
		return t.failed(t.s.checkpoint())
	case stepReingest:
		return t.reingest()
	}
	err := t.s.reboot(st.kind == stepClose)
	t.reacted, t.down = true, false // the reopened nodes write past the budget
	return err
}

// stream is the one seeded ingest loop. Writer w sends TrialRecord's
// stream seeded seed+w on pumps shifted by 100·w, so no two writers
// share a key.
func (t *trial) stream(st step) error {
	errs := make([]error, max(st.writers, 1))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(t.cfg.seed + int64(w)))
			for i := 0; i < st.records && errs[w] == nil; i++ {
				rec := TrialRecord(rng, i)
				rec.PumpID += 100 * w
				t.mu.Lock()
				down := t.down
				if !down {
					t.attempted = append(t.attempted, rec)
					t.res.Attempted++
				}
				t.mu.Unlock()
				if down {
					return
				}
				stored, err := t.s.ingest(rec)
				t.mu.Lock()
				if err != nil {
					t.res.Failed++
				} else if stored {
					t.acked = append(t.acked, rec)
					t.res.Acked++
				}
				ckpt := stored && st.every > 0 && t.res.Acked%st.every == 0
				t.mu.Unlock()
				switch {
				case err != nil:
					errs[w] = t.failed(fmt.Errorf("ingest: %w", err))
				case !stored:
					errs[w] = fmt.Errorf("writer %d record %d: judged a duplicate", w, i)
				case ckpt:
					errs[w] = t.failed(t.s.checkpoint())
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// reingest re-sends every attempted record, as a client retries after
// an outage; afterwards every one of them is acked.
func (t *trial) reingest() error {
	for i, rec := range t.attempted {
		_, err := t.s.ingest(rec)
		if err != nil && !t.reacted && t.budget.Crashed() {
			// A budget the stream spent to its last byte fires on the
			// first frame re-sent to its node.
			if err = t.react(); err == nil {
				_, err = t.s.ingest(rec)
			}
		}
		if err != nil {
			return fmt.Errorf("re-ingest %d: %w", i, err)
		}
	}
	t.acked = append(t.acked[:0], t.attempted...)
	return nil
}

// failed passes on an error the budget did not cause; for one it did,
// the subject reacts.
func (t *trial) failed(err error) error {
	if err != nil && !t.budget.Crashed() {
		return fmt.Errorf("failed without an injected crash: %w", err)
	}
	return t.react()
}

// react runs the subject's fire the first time the budget is seen fired.
func (t *trial) react() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.reacted || !t.budget.Crashed() {
		return nil
	}
	t.reacted = true
	if t.budget.pinErr != nil {
		return fmt.Errorf("pin the torn temp: %w", t.budget.pinErr)
	}
	fired, err := t.s.fire()
	t.res.Fired, t.down = fired, len(t.s.nodes()) == 0
	return err
}

// check runs every standing check on every live node: acked ⊆
// recovered ⊆ attempted over the nodes' hot ∪ cold, byte for byte
// (CheckRecovered); no *.tmp* file under any node's directory; and
// live ≡ batch on each node (liveEqualsBatch).
func (t *trial) check() error {
	nodes := t.s.nodes()
	if len(nodes) == 0 {
		return nil
	}
	union := store.NewMeasurements()
	for _, n := range nodes {
		// A record a crash left in both tiers (partition renamed, WAL
		// not yet retired) counts once; the byte comparison then proves
		// the cold copy decompressed bit-identical to what was sent.
		held := store.NewMeasurements()
		recs := allRecords(n.hot)
		if n.cold != nil {
			for _, id := range n.cold.Pumps() {
				cold, err := n.cold.Records(id)
				if err != nil {
					return fmt.Errorf("node %s: decompress pump %d: %w", n.dir, id, err)
				}
				recs = append(recs, cold...)
			}
		}
		for _, rec := range recs {
			held.AddUnique(rec)
			union.AddUnique(rec)
		}
		err := noTempsUnder(n.dir)
		if err == nil {
			err = liveEqualsBatch(n, held.Len())
		}
		if err != nil {
			return fmt.Errorf("node %s: %w", n.dir, err)
		}
	}
	t.res.Held = append(t.res.Held, union.Len())
	return CheckRecovered(union, t.acked, t.attempted)
}

// allRecords flattens a store, pump by pump.
func allRecords(m *store.Measurements) []*store.Record {
	var recs []*store.Record
	for _, id := range m.Pumps() {
		recs = append(recs, m.All(id)...)
	}
	return recs
}

// faultReference is the batch fault classifier of a fleet-default
// machine spec, as a default vibed and every trial's live state use.
var faultReference = feature.NewFaultDetector(feature.MachineSpec{})

// liveEqualsBatch asserts live ≡ batch on one node: every hot record's
// live RMS and VRMS, and each pump's latest fault report, equal the
// batch functions bitwise. None of those reads may fold a record (each
// was folded at its ack or its reboot's warm-up), and the live state
// holds no more records than the node (held): it never planted one a
// crash lost or the store refused.
func liveEqualsBatch(n trialNode, held int) error {
	size := n.live.Size()
	if size > held {
		return fmt.Errorf("live state holds %d folded records, the node %d", size, held)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	rms, _ := n.live.MetricFunc("rms")
	vrms, _ := n.live.MetricFunc("vrms")
	for _, id := range n.hot.Pumps() {
		for _, rec := range n.hot.All(id) {
			wantV := transform.VelocityRMS(rec, transform.ISOBandLoHz, transform.ISOBandHiHz)
			if !same(rms(rec), transform.RMS(rec)) || !same(vrms(rec), wantV) {
				return fmt.Errorf("pump %d t=%g: live trend point differs from batch", id, rec.ServiceDays)
			}
		}
		latest := n.hot.Latest(id)
		if got, want := n.live.FaultReport(latest), faultReference.Detect(latest); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("pump %d: live fault report %+v differs from a fresh detector pass %+v", id, got, want)
		}
	}
	if folded := n.live.Size() - size; folded != 0 {
		return fmt.Errorf("%d hot records were folded by the check, not at their ack", folded)
	}
	return nil
}

// storeSubject is one durable store behind stream.Ingester, the one
// ingest seam, so a live state folds every ack. The cluster subject
// lives with the cluster trials, in this package's tests.
type storeSubject struct {
	dir  string
	opts store.DurableOptions // the reopen's, with no budget
	in   stream.Ingester
	up   bool
}

// openStore opens a store subject. One whose first writes fire the
// budget is down until its reboot.
func openStore(dir string, b *CrashBudget, cfg trialConfig) (subject, error) {
	s := &storeSubject{dir: dir, opts: cfg.durable()}
	opts := s.opts
	opts.WAL.WrapFile = b.Wrap
	if err := s.open(opts); err != nil && !b.Crashed() {
		return nil, err
	}
	return s, nil
}

// open opens the store and warms a fresh live state from what it
// recovered.
func (s *storeSubject) open(opts store.DurableOptions) error {
	d, _, err := store.OpenDurable(s.dir, opts)
	if err != nil {
		return err
	}
	live := stream.NewLiveState(stream.Config{})
	live.SetFaultDetector(faultReference)
	live.Warm(d.Store(), 1)
	s.in, s.up = stream.Ingester{Store: d.Store(), Durable: d, Live: live}, true
	return nil
}

// ingest may race fire: an aborted store's log refuses the append.
func (s *storeSubject) ingest(rec *store.Record) (bool, error) { return s.in.Ingest(rec) }

func (s *storeSubject) checkpoint() error {
	_, err := s.in.Durable.Checkpoint()
	return err
}

// fire aborts the store, which ends the stream.
func (s *storeSubject) fire() (any, error) {
	s.abort()
	return nil, nil
}

func (s *storeSubject) reboot(clean bool) error {
	if s.up && clean {
		s.up = false
		if err := s.in.Durable.Close(); err != nil && !errors.Is(err, ErrCrashed) {
			return fmt.Errorf("clean close: %w", err)
		}
	}
	s.abort()
	return s.open(s.opts)
}

func (s *storeSubject) nodes() []trialNode {
	if !s.up {
		return nil
	}
	return []trialNode{{dir: s.dir, hot: s.in.Durable.Store(), cold: s.in.Durable.Cold(), live: s.in.Live}}
}

func (s *storeSubject) abort() {
	if s.up {
		s.up = false
		s.in.Durable.Abort()
	}
}
