// Package node is the one place a vibed is wired: the paper's Fig. 7
// box — sensor database, layered analysis engine, data retrieval REST
// layer — assembled from one Options value. The single-node server
// serves one Node directly; a cluster is a consistent-hash ring over
// several, so a cluster member has exactly the engine, live fold,
// fault classification and routes the single node has.
package node

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"vibepm"
	"vibepm/internal/restapi"
	"vibepm/internal/store"
	"vibepm/internal/stream"
)

// Options is everything that distinguishes one node from another.
type Options struct {
	// Dir is the durable store directory (WAL, snapshot and, when
	// tiered, the cold partitions). Empty serves from memory only.
	Dir string
	// Durable configures recovery and the write-ahead log under Dir:
	// fsync policy, tiering, replay parallelism and — for cluster
	// members — the replication hooks. Open owns its Store field and
	// Tiered.Metrics.
	Durable store.DurableOptions
	// Measurements and Labels are the preloaded corpus; nil starts
	// empty. With Labels the engine is fitted before Open returns (a
	// fit error is fatal); without, the analysis routes answer 503
	// until labels arrive and everything else serves normally.
	Measurements *store.Measurements
	Labels       *store.Labels
	// AgeOf supplies equipment ages for RUL; nil limits the analysis
	// routes to classification.
	AgeOf vibepm.AgeFunc
	// Faults classifies every measurement into the rotating-machine
	// fault taxonomy and serves /api/v1/pumps/{id}/faults.
	Faults bool
	// MaxBodyBytes caps an ingest request body (<= 0 = the restapi
	// default).
	MaxBodyBytes int64
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// Logger receives the assembly's progress lines; nil discards them.
	Logger *slog.Logger
}

// Node is one assembled vibed. The embedded Ingester is its write seam
// — Ingest is what POST /api/v1/measurements calls — and names its
// parts: Store, Durable (nil when Dir was empty) and Live.
type Node struct {
	stream.Ingester
	// Engine is the analysis engine over Store, fitted when Open was
	// given labels.
	Engine *vibepm.Engine
	// Recovery reports what opening the durable store reconstructed.
	Recovery store.RecoveryStats
	// Handler serves the node's whole HTTP surface.
	Handler http.Handler
	log     *slog.Logger
	// ckptDone closes when the post-recovery checkpoint Open started
	// has returned; Close and Abort wait for it.
	ckptDone chan struct{}
}

// Open recovers the durable store (when Dir is set), builds the engine
// over it, fits when there are labels, warms the live state, and
// mounts the API. A post-recovery checkpoint may still be running when
// it returns. Failures are logged at the step that failed and
// returned.
func Open(opts Options) (*Node, error) {
	n := &Node{Ingester: stream.Ingester{Store: opts.Measurements}, log: opts.Logger, ckptDone: make(chan struct{})}
	if n.Store == nil {
		n.Store = store.NewMeasurements()
	}
	if n.log == nil {
		n.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	// Durable ingestion: recover snapshot + WAL into the corpus store,
	// then log every ingest before acking it.
	if opts.Dir != "" {
		dopts := opts.Durable
		dopts.Store = n.Store
		if dopts.Tiered != nil {
			tiered := *dopts.Tiered
			tiered.Metrics = restapi.ColdMetrics()
			dopts.Tiered = &tiered
		}
		d, rs, err := store.OpenDurable(opts.Dir, dopts)
		if err != nil {
			n.log.Error("open durable store failed", "dir", opts.Dir, "err", err)
			return nil, fmt.Errorf("open durable store %s: %w", opts.Dir, err)
		}
		n.Durable, n.Recovery = d, rs
		n.log.Info("durable store recovered",
			"dir", opts.Dir,
			"snapshot_loaded", rs.SnapshotLoaded,
			"snapshot_records", rs.SnapshotRecords,
			"snapshot_load_ms", rs.SnapshotLoadDuration.Milliseconds(),
			"wal_segments", rs.Replay.Segments,
			"wal_records_replayed", rs.Replayed,
			"wal_truncations", rs.Replay.Truncations,
			"replay_ms", rs.ReplayDuration.Milliseconds(),
			"fsync", dopts.WAL.Policy.String(),
		)
		if c := d.Cold(); c != nil {
			cs := c.Stats()
			n.log.Info("cold tier recovered",
				"dir", c.Dir(),
				"partitions", cs.Partitions,
				"records", cs.Records,
				"compressed_bytes", cs.CompressedBytes,
				"compression_ratio", cs.Ratio,
				"retention", dopts.Tiered.Retention.String(),
			)
		}
	}

	// The only error is an inverted period, which this constant is not.
	periods, _ := store.NewPeriodManager(store.AnalysisPeriod{StartDays: 0, EndDays: 1e9}, 1.0/24)

	n.Engine = vibepm.NewWithStores(vibepm.Options{}, n.Store, opts.Labels)
	if n.Durable != nil {
		if c := n.Durable.Cold(); c != nil {
			// Fit reaches into cold partitions for labelled measurements
			// the compactor evicted from the hot window.
			n.Engine.AttachCold(c)
		}
	}
	if opts.Faults {
		// Fleet-default machine spec: rotor speed estimated per spectrum,
		// default bearing geometry. Enabled before the warm-up so it
		// classifies each pump's latest record, the one a fault view
		// reads; an earlier record is classified when first asked for.
		n.Engine.EnableFaults(vibepm.MachineSpec{}, vibepm.FaultOptions{})
	}
	// The engine's live state: every recovered measurement is folded
	// once up front (the warm-up), then the ingest seam keeps it current,
	// so trend and fleet queries stay O(new data).
	n.Live = n.Engine.Live()

	// With labels, fit before the warm-up: the fit's scan folds the
	// labelled records (and scores them once the baseline is trained),
	// which the warm-up then finds folded, and every other warm-up fold
	// extracts both harmonic variants from its one PSD and scores D_a,
	// so the first analysis request is pure cache reads instead of a
	// second DSP pass over the whole store.
	var fitErr error
	if opts.Labels != nil {
		if fitErr = n.Engine.Fit(); fitErr == nil {
			boundary, _ := n.Engine.Boundary()
			n.log.Info("engine fitted", "boundary_da", boundary)
		}
	}

	if fitErr == nil {
		warmStart := time.Now()
		warmed := n.Engine.WarmLive()
		n.log.Info("live state warmed", "records", warmed, "warm_ms", time.Since(warmStart).Milliseconds())
	}
	// When recovery replayed WAL records (or repaired torn frames), fold
	// them into a fresh snapshot so the next restart skips the replay.
	// The WAL already holds every replayed record, so readiness
	// ("recovered, fitted and warmed") does not wait for the rewrite.
	// It starts after the warm-up, so the warm-up has the CPU to
	// itself, and runs beside the first requests; Close and Abort wait
	// for it. It also starts after the fit, whose label scan caches
	// cold reads per pump and must not race a compaction's evictions,
	// and runs on the fit-error path too.
	go n.postRecoveryCheckpoint()
	if fitErr != nil {
		n.log.Error("fit failed", "err", fitErr)
		n.Abort()
		return nil, fmt.Errorf("fit: %w", fitErr)
	}

	mux := http.NewServeMux()
	mux.Handle("/api/v1/analysis/", restapi.NewAnalysis(n.Engine, opts.AgeOf))
	apiOpts := []restapi.Option{restapi.WithMaxBodyBytes(opts.MaxBodyBytes), restapi.WithLive(n.Live)}
	if opts.Faults {
		apiOpts = append(apiOpts, restapi.WithFaults(n.Engine))
	}
	if n.Durable != nil {
		apiOpts = append(apiOpts, restapi.WithDurable(n.Durable))
	}
	mux.Handle("/api/v1/", restapi.New(n.Store, opts.Labels, periods, apiOpts...))
	if opts.Pprof {
		// Mount explicitly rather than importing for side effects on
		// http.DefaultServeMux: the profile surface is opt-in.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		n.log.Info("pprof enabled", "path", "/debug/pprof/")
	}
	n.Handler = mux
	return n, nil
}

// postRecoveryCheckpoint checkpoints the durable store when recovery
// replayed or repaired anything, then closes ckptDone.
func (n *Node) postRecoveryCheckpoint() {
	defer close(n.ckptDone)
	if n.Durable == nil || (n.Recovery.Replayed == 0 && !n.Recovery.Replay.Truncated()) {
		return
	}
	cs, err := n.Durable.Checkpoint()
	if err != nil {
		n.log.Warn("post-recovery checkpoint failed", "err", err)
		return
	}
	n.log.Info("post-recovery checkpoint",
		"records", cs.Records,
		"segments_retired", cs.SegmentsRetired,
		"took_ms", cs.Duration.Milliseconds(),
	)
}

// StartMaintenance checkpoints the durable store every ckptEvery and,
// under the interval fsync policy, syncs the WAL every syncEvery,
// until Close or Abort. A node without a durable store has none.
func (n *Node) StartMaintenance(ckptEvery, syncEvery time.Duration) {
	if n.Durable == nil {
		return
	}
	n.Durable.StartCheckpointLoop(ckptEvery, syncEvery, func(err error) {
		n.log.Warn("durable background maintenance", "err", err)
	})
}

// Close waits for the post-recovery checkpoint, then takes the final
// one, so a clean shutdown restarts from the snapshot alone instead of
// replaying the whole log.
func (n *Node) Close() error {
	<-n.ckptDone
	if n.Durable == nil {
		return nil
	}
	if err := n.Durable.Close(); err != nil {
		n.log.Error("durable close", "err", err)
		return err
	}
	n.log.Info("durable store checkpointed")
	return nil
}

// Abort drops the node the way a crash would: no final checkpoint, no
// WAL sync. It waits for the post-recovery checkpoint first, so no
// write of this node outlives the call.
func (n *Node) Abort() {
	<-n.ckptDone
	if n.Durable != nil {
		n.Durable.Abort()
	}
}
