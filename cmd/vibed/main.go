// Command vibed serves one node of the analysis system (internal/node:
// durable store, analysis engine, live fold, fault classification, the
// REST data retrieval and analysis API, Prometheus metrics on
// /api/v1/metrics, optionally net/http/pprof) over a measurement corpus
// loaded from vibegen's files or freshly simulated. This package is
// flags, corpus and serve-until-signalled; the wiring is node.Open.
// With -cluster N it serves N such nodes, booted empty, behind the
// consistent-hash router of internal/cluster.
//
// Usage:
//
//	vibed -data data/           # serve a vibegen corpus on :8080
//	vibed -simulate -addr :9000 # simulate a fresh corpus and serve it
//	vibed -simulate -pprof      # also mount /debug/pprof/ handlers
//	vibed -cluster 3 -wal-dir d # 3 in-process full nodes, hash-routed,
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
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"vibepm/internal/dataset"
	"vibepm/internal/node"
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
		clusterN     = flag.Int("cluster", 0, "run N in-process nodes behind consistent-hash routing (needs -wal-dir)")
		faults       = flag.Bool("faults", true, "classify measurements into the rotating-machine fault taxonomy (serves /api/v1/pumps/{id}/faults)")

		tiered        = flag.Bool("tiered", false, "compact history beyond the hot window into compressed cold partitions (needs -wal-dir)")
		coldDir       = flag.String("cold-dir", "", "cold partition directory (default <wal-dir>/cold)")
		retention     = flag.String("retention", "", `cold-tier retention limits, e.g. "age=90d,bytes=512MB"; empty keeps everything`)
		hotWindowDays = flag.Float64("hot-window-days", 30, "history kept hot (uncompressed, in memory) behind the newest record")
		partitionDays = flag.Float64("partition-days", 7, "service-time span of one cold partition")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "bad -log-level:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger) // the request path's rare write-failure lines
	opts := node.Options{
		Dir:          *walDir,
		Faults:       *faults,
		MaxBodyBytes: *maxBodyBytes,
		Pprof:        *pprofEnabled,
		Logger:       logger,
	}
	if *walDir != "" {
		policy, err := store.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			logger.Error("bad -fsync", "err", err)
			os.Exit(2)
		}
		opts.Durable.WAL.Policy = policy
	}

	if *clusterN != 0 {
		os.Exit(runClusterMode(*addr, *clusterN, opts, *ckptEvery, *syncEvery))
	}

	if *tiered {
		if *walDir == "" {
			fmt.Fprintln(os.Stderr, "-tiered needs -wal-dir")
			os.Exit(2)
		}
		pol, err := store.ParseRetention(*retention)
		if err != nil {
			logger.Error("bad -retention", "err", err)
			os.Exit(2)
		}
		opts.Durable.Tiered = &store.TieredOptions{
			ColdDir:       *coldDir,
			HotWindowDays: *hotWindowDays,
			PartitionDays: *partitionDays,
			Retention:     pol,
		}
	}

	source := "simulated"
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
		opts.Measurements = ds.Measurements
		opts.Labels = ds.Labels
		opts.AgeOf = func(pumpID int, serviceDays float64) float64 {
			return ds.Fleet.Pump(pumpID).UnitAgeDays(serviceDays)
		}
	case *dataDir != "":
		opts.Measurements, opts.Labels = store.NewMeasurements(), store.NewLabels()
		source = filepath.Join(*dataDir, "measurements.bin")
		if *walDir != "" && store.HasSnapshot(*walDir) {
			// Recovery replaces the store's contents with the snapshot,
			// so the corpus file would be read only to be thrown away.
			source = filepath.Join(*walDir, "snapshot.bin")
		} else if err := opts.Measurements.LoadFile(source); err != nil {
			logger.Error("load measurements failed", "err", err)
			os.Exit(1)
		}
		if err := opts.Labels.LoadFile(filepath.Join(*dataDir, "labels.json")); err != nil {
			logger.Error("load labels failed", "err", err)
			os.Exit(1)
		}
		// Without factory install dates, service time is the age proxy.
		opts.AgeOf = func(_ int, serviceDays float64) float64 { return serviceDays }
	default:
		fmt.Fprintln(os.Stderr, "need -data DIR or -simulate")
		os.Exit(2)
	}
	logger.Info("corpus loaded", "measurements", opts.Measurements.Len(), "labels", opts.Labels.Len(), "measurements_from", source)

	n, err := node.Open(opts)
	if err != nil {
		os.Exit(1) // Open logged the step that failed
	}
	n.StartMaintenance(*ckptEvery, *syncEvery)
	logger.Info("listening", "addr", *addr, "pprof", *pprofEnabled)
	os.Exit(serveUntilSignal(*addr, n.Handler, logger, n.Close, "stopped cleanly"))
}

// serveUntilSignal serves h on addr until SIGINT or SIGTERM, then
// drains in-flight requests for up to 10 s and runs closeStores, which
// logs its own failure; stopped is the line logged after a clean stop.
// Returns the process exit code.
func serveUntilSignal(addr string, h http.Handler, logger *slog.Logger, closeStores func() error, stopped string) int {
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
	if closeStores() != nil {
		return 1
	}
	logger.Info(stopped)
	return 0
}
