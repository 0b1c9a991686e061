// Command vibed serves the analysis system's data retrieval REST API
// over a measurement corpus — either loaded from files produced by
// vibegen, or freshly simulated. It also fits the analysis engine and
// exposes the derived results (zone classification, boundary, RUL) on
// additional endpoints, plus Prometheus metrics on /api/v1/metrics and
// (optionally) the net/http/pprof profiling handlers.
//
// Usage:
//
//	vibed -data data/           # serve a vibegen corpus on :8080
//	vibed -simulate -addr :9000 # simulate a fresh corpus and serve it
//	vibed -simulate -pprof      # also mount /debug/pprof/ handlers
//	vibed -cluster 3 -wal-dir d # 3 in-process nodes, hash-routed ingest,
//	                            # per-node WALs replicated to followers
//	vibed -data data/ -wal-dir d -tiered -retention age=90d
//	                            # compact history beyond the hot window
//	                            # into compressed cold partitions
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"vibepm"
	"vibepm/internal/dataset"
	"vibepm/internal/obs"
	"vibepm/internal/physics"
	"vibepm/internal/restapi"
	"vibepm/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		dataDir      = flag.String("data", "", "directory with measurements.bin and labels.json (from vibegen)")
		simulate     = flag.Bool("simulate", false, "simulate a small corpus instead of loading files")
		seed         = flag.Int64("seed", 1, "simulation seed")
		logLevel     = flag.String("log-level", "info", "minimum log level (debug|info|warn|error)")
		maxBodyBytes = flag.Int64("max-body-bytes", restapi.DefaultMaxBodyBytes, "ingest request body cap in bytes")
		pprofEnabled = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		walDir       = flag.String("wal-dir", "", "durable store directory: WAL + snapshot; empty disables durability")
		fsyncPolicy  = flag.String("fsync", "always", "WAL fsync policy: always, interval, never")
		ckptEvery    = flag.Duration("checkpoint-interval", time.Minute, "background checkpoint period for -wal-dir")
		syncEvery    = flag.Duration("fsync-interval", time.Second, "WAL fsync period under -fsync interval")
		clusterN     = flag.Int("cluster", 0, "run N in-process nodes behind consistent-hash routing (needs -wal-dir; data plane only)")
		faults       = flag.Bool("faults", true, "classify measurements into the rotating-machine fault taxonomy (serves /api/v1/pumps/{id}/faults)")

		tiered        = flag.Bool("tiered", false, "compact history beyond the hot window into compressed cold partitions (needs -wal-dir)")
		coldDir       = flag.String("cold-dir", "", "cold partition directory (default <wal-dir>/cold)")
		retention     = flag.String("retention", "", `cold-tier retention limits, e.g. "age=90d,bytes=512MB"; empty keeps everything`)
		hotWindowDays = flag.Float64("hot-window-days", 30, "history kept hot (uncompressed, in memory) behind the newest record")
		partitionDays = flag.Float64("partition-days", 7, "service-time span of one cold partition")
	)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel))

	if *clusterN > 1 {
		os.Exit(runClusterMode(*addr, *walDir, *fsyncPolicy, *clusterN, *maxBodyBytes, *ckptEvery, *syncEvery, logger))
	}
	if *clusterN != 0 {
		fmt.Fprintln(os.Stderr, "-cluster needs at least 2 nodes")
		os.Exit(2)
	}

	measurements := store.NewMeasurements()
	labels := store.NewLabels()
	var ageOf vibepm.AgeFunc

	switch {
	case *simulate:
		logger.Info("simulating corpus", "seed", *seed)
		ds, err := dataset.Generate(dataset.Config{
			Seed:               *seed,
			DurationDays:       60,
			MeasurementsPerDay: 2,
			LabelCounts: map[physics.MergedZone]int{
				physics.MergedA:  60,
				physics.MergedBC: 120,
				physics.MergedD:  60,
			},
		})
		if err != nil {
			logger.Error("simulate failed", "err", err)
			os.Exit(1)
		}
		measurements = ds.Measurements
		labels = ds.Labels
		for _, lr := range ds.LabelledRecords {
			measurements.Add(lr.Record)
		}
		ageOf = func(pumpID int, serviceDays float64) float64 {
			return ds.Fleet.Pump(pumpID).UnitAgeDays(serviceDays)
		}
	case *dataDir != "":
		if err := measurements.LoadFile(filepath.Join(*dataDir, "measurements.bin")); err != nil {
			logger.Error("load measurements failed", "err", err)
			os.Exit(1)
		}
		if err := labels.LoadFile(filepath.Join(*dataDir, "labels.json")); err != nil {
			logger.Error("load labels failed", "err", err)
			os.Exit(1)
		}
		// Without factory install dates, service time is the age proxy.
		ageOf = func(_ int, serviceDays float64) float64 { return serviceDays }
	default:
		fmt.Fprintln(os.Stderr, "need -data DIR or -simulate")
		os.Exit(2)
	}
	logger.Info("corpus loaded", "measurements", measurements.Len(), "labels", labels.Len())

	// Durable ingestion: recover snapshot + WAL into the corpus store,
	// then log every ingest before acking it.
	var durable *store.Durable
	var rstats store.RecoveryStats
	if *tiered && *walDir == "" {
		fmt.Fprintln(os.Stderr, "-tiered needs -wal-dir")
		os.Exit(2)
	}
	if *walDir != "" {
		policy, err := store.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			logger.Error("bad -fsync", "err", err)
			os.Exit(2)
		}
		dopts := store.DurableOptions{
			Store: measurements,
			WAL:   store.WALOptions{Policy: policy},
		}
		if *tiered {
			pol, err := store.ParseRetention(*retention)
			if err != nil {
				logger.Error("bad -retention", "err", err)
				os.Exit(2)
			}
			dopts.Tiered = &store.TieredOptions{
				ColdDir:       *coldDir,
				HotWindowDays: *hotWindowDays,
				PartitionDays: *partitionDays,
				Metrics:       restapi.ColdMetrics(),
				Retention:     pol,
			}
		}
		d, rs, err := store.OpenDurable(*walDir, dopts)
		if err != nil {
			logger.Error("open durable store failed", "dir", *walDir, "err", err)
			os.Exit(1)
		}
		durable = d
		rstats = rs
		logger.Info("durable store recovered",
			"dir", *walDir,
			"snapshot_loaded", rstats.SnapshotLoaded,
			"snapshot_records", rstats.SnapshotRecords,
			"snapshot_load_ms", rstats.SnapshotLoadDuration.Milliseconds(),
			"wal_segments", rstats.Replay.Segments,
			"wal_records_replayed", rstats.Replayed,
			"wal_truncations", rstats.Replay.Truncations,
			"replay_ms", rstats.ReplayDuration.Milliseconds(),
			"fsync", policy.String(),
		)
		if c := durable.Cold(); c != nil {
			cs := c.Stats()
			logger.Info("cold tier recovered",
				"dir", c.Dir(),
				"partitions", cs.Partitions,
				"records", cs.Records,
				"compressed_bytes", cs.CompressedBytes,
				"compression_ratio", cs.Ratio,
				"retention", dopts.Tiered.Retention.String(),
			)
		}
		durable.StartCheckpointLoop(*ckptEvery, *syncEvery, func(err error) {
			logger.Warn("durable background maintenance", "err", err)
		})
	}

	periods, err := store.NewPeriodManager(store.AnalysisPeriod{StartDays: 0, EndDays: 1e9}, 1.0/24)
	if err != nil {
		logger.Error("period manager", "err", err)
		os.Exit(1)
	}

	eng := vibepm.NewWithStores(vibepm.Options{}, measurements, labels)
	if durable != nil {
		if c := durable.Cold(); c != nil {
			// Fit reaches into cold partitions for labelled measurements
			// the compactor evicted from the hot window.
			eng.AttachCold(c)
		}
	}
	if *faults {
		// Fleet-default machine spec: rotor speed estimated per spectrum,
		// default bearing geometry. Enabled before the live state so every
		// warm-up fold classifies once, at fold time.
		eng.EnableFaults(vibepm.MachineSpec{}, vibepm.FaultOptions{})
	}
	// The incremental analysis path: fold every recovered measurement
	// once up front (the warm-up), then keep the cache current from the
	// ingest endpoint, so trend and fleet queries stay O(new data).
	live := eng.EnableLive()

	// When recovery replayed WAL records (or repaired torn frames),
	// fold them into a fresh snapshot right away so the next restart
	// skips the replay. The checkpoint is I/O-bound and the warm-up is
	// CPU-bound, and both only read the recovered store — so they run
	// concurrently instead of stacking their latencies.
	var ckptDone chan struct{}
	if durable != nil && (rstats.Replayed > 0 || rstats.Replay.Truncated()) {
		ckptDone = make(chan struct{})
		go func() {
			defer close(ckptDone)
			cs, err := durable.Checkpoint()
			if err != nil {
				logger.Warn("post-recovery checkpoint failed", "err", err)
				return
			}
			logger.Info("post-recovery checkpoint",
				"records", cs.Records,
				"segments_retired", cs.SegmentsRetired,
				"took_ms", cs.Duration.Milliseconds(),
			)
		}()
	}
	warmStart := time.Now()
	warmed := eng.WarmLive()
	logger.Info("live state warmed", "records", warmed, "warm_ms", time.Since(warmStart).Milliseconds())
	if ckptDone != nil {
		<-ckptDone
	}
	if err := eng.Fit(); err != nil {
		logger.Error("fit failed", "err", err)
		os.Exit(1)
	}
	boundary, _ := eng.Boundary()
	logger.Info("engine fitted", "boundary_da", boundary)

	mux := http.NewServeMux()
	mux.Handle("/api/v1/analysis/", restapi.NewAnalysis(eng, ageOf))
	apiOpts := []restapi.Option{restapi.WithMaxBodyBytes(*maxBodyBytes), restapi.WithLive(live)}
	if *faults {
		apiOpts = append(apiOpts, restapi.WithFaults(eng))
	}
	if durable != nil {
		apiOpts = append(apiOpts, restapi.WithDurable(durable))
	}
	mux.Handle("/api/v1/", restapi.New(measurements, labels, periods, apiOpts...))
	if *pprofEnabled {
		// Mount explicitly rather than importing for side effects on
		// http.DefaultServeMux: the profile surface is opt-in.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	logger.Info("listening", "addr", *addr, "pprof", *pprofEnabled)
	os.Exit(serveUntilSignal(*addr, mux, logger, func() error {
		if durable != nil {
			// Final checkpoint: a clean shutdown restarts from the
			// snapshot alone instead of replaying the whole log.
			if err := durable.Close(); err != nil {
				logger.Error("durable close", "err", err)
				return err
			}
			logger.Info("durable store checkpointed")
		}
		logger.Info("stopped cleanly")
		return nil
	}))
}

// serveUntilSignal serves h on addr until SIGINT or SIGTERM, then
// drains in-flight requests for up to 10 s and runs onStop, which
// closes the stores and logs its own outcome. Returns the process exit
// code.
func serveUntilSignal(addr string, h http.Handler, logger *obs.Logger, onStop func() error) int {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		logger.Error("serve failed", "err", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down", "grace", "10s")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown", "err", err)
		return 1
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", "err", err)
		return 1
	}
	if onStop() != nil {
		return 1
	}
	return 0
}
