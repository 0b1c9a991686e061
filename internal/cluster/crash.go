package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"

	"vibepm/internal/chaos"
	"vibepm/internal/feature"
	"vibepm/internal/node"
	"vibepm/internal/store"
	"vibepm/internal/transform"
)

// crashTrialConfig parameterizes one node-kill crash trial.
type crashTrialConfig struct {
	// Dir is the cluster root (one per trial).
	Dir string
	// Seed fixes the generated record stream.
	Seed int64
	// Records is how many ingests the trial attempts.
	Records int
	// CrashAfterBytes cuts the victim's WAL at this byte offset
	// (headers included); <= 0 runs the stream to completion with no
	// crash (the probe mode the sweep uses to size its offsets). The
	// victim is the first of the trial's three members. The budget wraps
	// only its own files — mirror writes on the follower are real — so
	// the crash point is a deterministic function of the victim's
	// appends.
	CrashAfterBytes int64
	// SegmentBytes sets every node's WAL rotation threshold (0 =
	// default). Small values make crash offsets land on rotations and
	// exercise mirror segment switching.
	SegmentBytes int64
	// Policy is the WAL fsync policy under test.
	Policy store.SyncPolicy
	// ReplayWorkers is the recovery parallelism every cluster open and
	// failover in the trial uses (<= 0 GOMAXPROCS, 1 sequential) — the
	// sweep pins it above 1 to prove the contract holds under the
	// parallel replayer.
	ReplayWorkers int
}

// crashTrialResult reports one trial.
type crashTrialResult struct {
	// Attempted is how many ingests were issued.
	Attempted int
	// Acked is how many ingests returned nil error.
	Acked int
	// Failed is how many ingests errored (routed to the dying node).
	Failed int
	// Recovered is the cluster-wide unique record count after failover.
	Recovered int
	// Crashed reports whether the injected crash fired.
	Crashed bool
	// WALBytes is what the victim wrote through the budget.
	WALBytes int64
	// Victim is the node that was killed ("" if the crash never fired
	// and no kill happened).
	Victim string
	// Failover reports the promotion (zero value when no kill).
	Failover FailoverStats
}

// runCrashTrial ingests a seeded record stream into an N-node
// cluster whose victim node's WAL is cut at an injected byte offset.
// The moment an ingest fails on the armed crash, the victim is killed
// and its follower promoted; the rest of the stream keeps flowing
// through post-failover routing. The trial then checks the clustered
// recovery contract:
//
//	acked ⊆ recovered ⊆ attempted   (cluster-wide, chaos.CheckRecovered)
//
// — every acknowledged ingest survives the node death byte-for-byte
// somewhere in the cluster, and nothing the clients never sent
// materializes — with every survivor's live state equal to the batch
// recompute over its store. Re-ingesting the attempted stream must
// then converge the union to exactly that stream, and a clean close
// and reboot of the survivors must reproduce it, each with live ≡
// batch again. A non-nil error means the contract was violated (or
// the trial could not run).
func runCrashTrial(cfg crashTrialConfig) (crashTrialResult, error) {
	var res crashTrialResult
	names := MemberNames(3)
	victim := names[0]
	budget := chaos.NewCrashBudget(cfg.CrashAfterBytes)
	// Members classify faults like a default vibed, so the live ≡ batch
	// check below covers the fault status too.
	member := node.Options{Faults: true, Durable: store.DurableOptions{
		WAL:           store.WALOptions{SegmentBytes: cfg.SegmentBytes, Policy: cfg.Policy},
		ReplayWorkers: cfg.ReplayWorkers,
	}}
	c, err := Open(cfg.Dir, names, Options{
		Node: member,
		WrapFileFor: func(name string) func(string, *os.File) store.SegmentFile {
			if name == victim {
				return budget.Wrap
			}
			return nil
		},
	})
	if err != nil {
		if !budget.Crashed() {
			return res, fmt.Errorf("open cluster: %w", err)
		}
		// The crash fired inside the victim's very first segment writes:
		// the node died at boot and the cluster forms without it. Nothing
		// was acked there, and no mirror exists to promote.
		res.Victim = victim
		c, err = Open(cfg.Dir, names[1:], Options{Node: member})
		if err != nil {
			return res, fmt.Errorf("open cluster without victim: %w", err)
		}
	}
	defer func() { c.abortAll() }()

	// killVictim runs the operator's move once the armed node is seen
	// failing: kill it and let the follower promote. res.Victim records
	// that it is already dead.
	killVictim := func() error {
		if res.Victim != "" {
			return nil
		}
		res.Victim = victim
		fo, err := c.Kill(victim)
		if err != nil {
			return fmt.Errorf("kill %s: %w", victim, err)
		}
		res.Failover = fo
		return nil
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var acked, attempted []*store.Record
	for i := 0; i < cfg.Records; i++ {
		rec := chaos.TrialRecord(rng, i)
		attempted = append(attempted, rec)
		res.Attempted++
		_, stored, err := c.Ingest(rec)
		if err != nil {
			if !budget.Crashed() {
				return res, fmt.Errorf("ingest %d: %w", i, err)
			}
			res.Failed++
			if err := killVictim(); err != nil {
				return res, err
			}
			continue
		}
		if !stored {
			return res, fmt.Errorf("ingest %d: unexpectedly judged duplicate", i)
		}
		acked = append(acked, rec)
	}
	res.Acked = len(acked)
	res.Crashed = budget.Crashed()
	res.WALBytes = budget.Written()

	// The budget can fire on the victim's very last frame with no later
	// ingest routed there; the sweep still wants the failover exercised.
	if res.Crashed && res.Victim == "" {
		if err := killVictim(); err != nil {
			return res, err
		}
	}

	union := c.Union()
	res.Recovered = union.Len()
	if err := chaos.CheckRecovered(union, acked, attempted); err != nil {
		return res, err
	}
	if err := liveEqualsBatch(c); err != nil {
		return res, fmt.Errorf("after failover: %w", err)
	}

	// The client retries after the outage: re-ingesting every attempted
	// record converges the cluster union to exactly the attempted stream.
	for i, rec := range attempted {
		if _, _, err := c.Ingest(rec); err != nil {
			// A budget that was exhausted without ever firing (the cut
			// landed exactly on the last byte of the main stream) fires
			// on the first re-ingested duplicate instead; the operator
			// story is the same — kill, promote, retry.
			if !budget.Crashed() || res.Victim != "" {
				return res, fmt.Errorf("re-ingest %d: %w", i, err)
			}
			if err := killVictim(); err != nil {
				return res, err
			}
			if _, _, err := c.Ingest(rec); err != nil {
				return res, fmt.Errorf("re-ingest %d after failover: %w", i, err)
			}
		}
	}
	if err := chaos.CheckRecovered(c.Union(), attempted, attempted); err != nil {
		return res, fmt.Errorf("after re-ingest: %w", err)
	}
	if err := liveEqualsBatch(c); err != nil {
		return res, fmt.Errorf("after re-ingest: %w", err)
	}

	// A clean close and a reboot of the survivors from disk reproduce
	// the same cluster-wide contents.
	survivors := names
	if res.Victim != "" {
		survivors = names[1:]
	}
	// A cut past all the victim wrote so far fires in its close-time
	// checkpoint instead: a crash at shutdown, which the reboot must
	// recover from like any other.
	if err := c.Close(); err != nil && !errors.Is(err, chaos.ErrCrashed) {
		return res, fmt.Errorf("clean close: %w", err)
	}
	again, err := Open(cfg.Dir, survivors, Options{Node: member})
	if err != nil {
		return res, fmt.Errorf("reopen cluster: %w", err)
	}
	defer again.abortAll()
	if err := chaos.CheckRecovered(again.Union(), attempted, attempted); err != nil {
		return res, fmt.Errorf("reopened vs pre-close: %w", err)
	}
	if err := liveEqualsBatch(again); err != nil {
		return res, fmt.Errorf("after reopen: %w", err)
	}
	return res, nil
}

// liveEqualsBatch asserts the live ≡ batch contract on every surviving
// member: each stored record was folded at its ack — routed ingest and
// failover adoption alike — and never since (the live state holds
// exactly the store's records before any query could fold one
// lazily), every record's live trend scalars are bit-identical to the
// batch transforms over the member's store, and each pump's fault
// status equals a fresh detector pass over its latest record.
func liveEqualsBatch(c *Cluster) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	det := feature.NewFaultDetector(feature.MachineSpec{})
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, name := range c.order {
		n := c.nodes[name]
		if !n.alive {
			continue
		}
		s, live := n.Store, n.Live
		if live.Size() != s.Len() {
			return fmt.Errorf("node %s: live state holds %d folded records, store holds %d", name, live.Size(), s.Len())
		}
		rms, _ := live.MetricFunc("rms")
		vrms, _ := live.MetricFunc("vrms")
		for _, id := range s.Pumps() {
			for _, rec := range s.All(id) {
				wantV := transform.VelocityRMS(rec, transform.ISOBandLoHz, transform.ISOBandHiHz)
				if !same(rms(rec), transform.RMS(rec)) || !same(vrms(rec), wantV) {
					return fmt.Errorf("node %s pump %d t=%g: live trend point differs from batch", name, id, rec.ServiceDays)
				}
			}
			got, err := n.Engine.FaultStatus(id)
			if err != nil {
				return fmt.Errorf("node %s pump %d: fault status: %w", name, id, err)
			}
			latest := s.Latest(id)
			if want := det.Detect(latest); got.ServiceDays != latest.ServiceDays || !reflect.DeepEqual(got.FaultReport, want) {
				return fmt.Errorf("node %s pump %d: live fault status %+v differs from a fresh detector pass %+v", name, id, got.FaultReport, want)
			}
		}
	}
	return nil
}
