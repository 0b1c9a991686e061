// Benchmarks of the durability, clustering-mirror, tiering and recovery
// layers. An external test package, because the tiered cases index the
// cold tier with the metrics restapi serves.
package store_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"vibepm/internal/mems"
	"vibepm/internal/physics"
	"vibepm/internal/restapi"
	"vibepm/internal/store"
)

// smallRecord is a 16-sample record: small enough that the WAL cases
// price the framing and the write, not the payload copy.
func smallRecord(rng *rand.Rand, pump int, day float64) *store.Record {
	raw := make([]int16, 16)
	for j := range raw {
		raw[j] = int16(rng.Intn(4096) - 2048)
	}
	return &store.Record{
		PumpID:       pump,
		ServiceDays:  day,
		SampleRateHz: 4000,
		ScaleG:       0.003,
		Raw:          [3][]int16{raw, raw, raw},
	}
}

func benchmarkWALAppend(b *testing.B, policy store.SyncPolicy, seed int64) {
	w, err := store.OpenWAL(b.TempDir(), store.WALOptions{Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := smallRecord(rand.New(rand.NewSource(seed)), 3, 1.5)
	b.ReportAllocs()
	for b.Loop() {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppend16(b *testing.B) { benchmarkWALAppend(b, store.SyncNever, 1) }

// BenchmarkWALAppendSyncAlways has no row in BENCH.txt on purpose: a
// per-op fsync measures the machine's disk, not the code.
func BenchmarkWALAppendSyncAlways(b *testing.B) { benchmarkWALAppend(b, store.SyncAlways, 2) }

// BenchmarkDecodeRecord: one 1,024-sample record's payload into a
// Record — the per-frame work of a snapshot load and a WAL replay.
func BenchmarkDecodeRecord(b *testing.B) {
	var buf bytes.Buffer
	if err := store.EncodeRecord(&buf, syntheticRecords(1, 1, 1024, 5)[0]); err != nil {
		b.Fatal(err)
	}
	payload := buf.Bytes()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := store.DecodeRecord(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALReplay1k(b *testing.B) {
	dir := b.TempDir()
	w, err := store.OpenWAL(dir, store.WALOptions{Policy: store.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if err := w.Append(smallRecord(rng, i%16, float64(i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		n := 0
		stats, err := store.ReplayWALWorkers(dir, func(*store.Record) error { n++; return nil }, 0)
		if err != nil || n != 1000 || stats.Truncated() {
			b.Fatalf("replayed %d records, stats %+v, err %v", n, stats, err)
		}
	}
}

// BenchmarkDurableAddUnique16 is the full durable ingest: WAL frame
// plus memory apply.
func BenchmarkDurableAddUnique16(b *testing.B) {
	d, _, err := store.OpenDurable(b.TempDir(), store.DurableOptions{
		WAL: store.WALOptions{Policy: store.SyncNever},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Abort()
	rng := rand.New(rand.NewSource(4))
	day := 0.0
	b.ReportAllocs()
	for b.Loop() {
		day += 0.25
		stored, err := d.AddUnique(smallRecord(rng, int(day)%16, day))
		if err != nil || !stored {
			b.Fatalf("stored=%v err=%v", stored, err)
		}
	}
}

// BenchmarkSegmentShip is what the follower guarantee costs per record:
// the mirror-side append of the frame the primary's WAL ships.
func BenchmarkSegmentShip(b *testing.B) {
	var frame []byte
	w, err := store.OpenWAL(b.TempDir(), store.WALOptions{
		Policy:  store.SyncNever,
		OnFrame: func(_ int, f []byte) error { frame = append([]byte(nil), f...); return nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Append(smallRecord(rand.New(rand.NewSource(9)), 3, 1.5)); err != nil {
		b.Fatal(err)
	}
	w.Close()
	m, err := store.NewSegmentMirror(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ReportAllocs()
	for b.Loop() {
		if err := m.AppendFrame(1, frame); err != nil {
			b.Fatal(err)
		}
	}
}

// measuredRecord captures one simulated measurement as a stored record.
func measuredRecord(sensor *mems.Sensor, p *physics.Pump, id int, day float64, samples int) *store.Record {
	m := sensor.Measure(p, day, samples)
	return &store.Record{
		PumpID:       id,
		ServiceDays:  day,
		SampleRateHz: m.SampleRateHz,
		ScaleG:       m.ScaleG,
		Raw:          m.Raw,
	}
}

// benchWave is one realistic waveform, long enough that codec
// throughput dominates per-call overhead.
func benchWave(b *testing.B) []int16 {
	sensor, err := mems.New(mems.Config{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	return sensor.Measure(physics.NewPump(physics.PumpConfig{ID: 1, Seed: 1}), 5, 16384).Raw[0]
}

func BenchmarkColdCompress16k(b *testing.B) {
	wave := benchWave(b)
	dst := make([]byte, 0, 4*len(wave))
	b.SetBytes(int64(2 * len(wave)))
	b.ReportAllocs()
	for b.Loop() {
		dst = store.CompressInt16sInto(dst[:0], wave)
	}
}

func BenchmarkColdDecompress16k(b *testing.B) {
	wave := benchWave(b)
	src := store.CompressInt16sInto(nil, wave)
	out := make([]int16, len(wave))
	b.SetBytes(int64(2 * len(wave)))
	b.ReportAllocs()
	for b.Loop() {
		if err := store.DecompressInt16sInto(out, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdTrendScan is the read path under a cold-range trend
// query — pull the resident scalar series for every pump and
// downsample; no waveform ever decompresses — over 4 pumps × 28 days
// moved cold through the real compaction path.
func BenchmarkColdTrendScan(b *testing.B) {
	d, _, err := store.OpenDurable(b.TempDir(), store.DurableOptions{
		WAL: store.WALOptions{Policy: store.SyncNever},
		Tiered: &store.TieredOptions{
			HotWindowDays: 2,
			PartitionDays: 7,
			Metrics:       restapi.ColdMetrics(),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	for id := 1; id <= 4; id++ {
		p := physics.NewPump(physics.PumpConfig{ID: id, Seed: int64(id)})
		s, err := mems.New(mems.Config{Seed: int64(20 + id)})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 28*8; i++ {
			if _, err := d.AddUnique(measuredRecord(s, p, id, float64(i)*0.125, 256)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	cold := d.Cold()
	d.Abort()
	if len(cold.TrendSeries(1, "rms")) == 0 {
		b.Fatal("cold trend scan corpus compacted nothing")
	}
	b.ReportAllocs()
	for b.Loop() {
		for id := 1; id <= 4; id++ {
			series := cold.TrendSeries(id, "rms")
			if pts := store.DownsampleMinMax(series, 512); len(pts) == 0 {
				b.Fatal("empty cold trend")
			}
		}
	}
}

// BenchmarkIngestDuringCompaction is ingest latency while the compactor
// runs. It reports p99-ns, which BENCH.txt gates: the tiering pitch is
// that compaction does not pause the write path, and the mean hides
// the pauses.
func BenchmarkIngestDuringCompaction(b *testing.B) {
	d, _, err := store.OpenDurable(b.TempDir(), store.DurableOptions{
		WAL: store.WALOptions{Policy: store.SyncNever},
		Tiered: &store.TieredOptions{
			HotWindowDays: 2,
			PartitionDays: 1,
			Metrics:       restapi.ColdMetrics(),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Abort()
	s, err := mems.New(mems.Config{Seed: 31})
	if err != nil {
		b.Fatal(err)
	}
	p := physics.NewPump(physics.PumpConfig{ID: 1, Seed: 3})
	// Backfill history so the checkpoints below always have spans to
	// compact while the timed ingest runs.
	day := 0.0
	for i := 0; i < 400; i++ {
		day += 0.05
		if _, err := d.AddUnique(measuredRecord(s, p, 1, day, 256)); err != nil {
			b.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.Checkpoint(); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	lat := make([]time.Duration, 0, 1<<16)
	b.ReportAllocs()
	for b.Loop() {
		day += 0.05
		rec := measuredRecord(s, p, 1, day, 256)
		start := time.Now()
		if _, err := d.AddUnique(rec); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	close(stop)
	wg.Wait()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
}

// syntheticRecords builds perPump unique-keyed records for each of
// pumps. Payload content is irrelevant to replay and bootstrap cost, so
// a seeded rng replaces the MEMS model and keeps a 100k-record corpus
// cheap to build.
func syntheticRecords(pumps, perPump, samples int, seed int64) []*store.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]*store.Record, 0, pumps*perPump)
	for p := 0; p < pumps; p++ {
		for i := 0; i < perPump; i++ {
			rec := &store.Record{PumpID: p, ServiceDays: float64(i) * 0.25, SampleRateHz: 3200, ScaleG: 16}
			for axis := 0; axis < 3; axis++ {
				w := make([]int16, samples)
				for j := range w {
					w[j] = int16(rng.Intn(4096) - 2048)
				}
				rec.Raw[axis] = w
			}
			recs = append(recs, rec)
		}
	}
	return recs
}

// BenchmarkRecovery100k replays a 100k-record multi-segment WAL into a
// fresh store — the restart cost a node pays before serving — with
// workers=0, so it fans out to GOMAXPROCS: BENCH.txt has a row at
// -cpu 1 and one at -cpu 2. Its 64-sample records make scan and apply
// dominate; the paper-shape case below prices the serving corpus.
func BenchmarkRecovery100k(b *testing.B) {
	benchmarkRecovery(b, syntheticRecords(40, 2500, 64, 91))
}

// paperShapeRecords is the corpus the serving workloads of the repo
// benchmark run on: 12 pumps × 378 records × 1,024 samples per axis.
func paperShapeRecords() []*store.Record { return syntheticRecords(12, 378, 1024, 94) }

// BenchmarkRecoveryPaperShape is Recovery100k over paper-shape records,
// where verifying and decoding 6 KB payloads is the compute-bound
// stage the worker pool splits: rows at -cpu 1 and -cpu 2.
func BenchmarkRecoveryPaperShape(b *testing.B) { benchmarkRecovery(b, paperShapeRecords()) }

func benchmarkRecovery(b *testing.B, recs []*store.Record) {
	dir := b.TempDir()
	w, err := store.OpenWAL(dir, store.WALOptions{Policy: store.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		m := store.NewMeasurements()
		stats, err := store.ReplayWALWorkers(dir, func(rec *store.Record) error {
			m.AddUnique(rec)
			return nil
		}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Records != len(recs) {
			b.Fatalf("replayed %d records, want %d", stats.Records, len(recs))
		}
	}
}

// BenchmarkSnapshotLoadPaperShape loads a store file of the paper-shape
// corpus; LoadFile verifies across GOMAXPROCS workers: rows at -cpu 1
// and -cpu 2.
func BenchmarkSnapshotLoadPaperShape(b *testing.B) {
	recs := paperShapeRecords()
	src := store.NewMeasurements()
	for _, rec := range recs {
		src.AddUnique(rec)
	}
	path := filepath.Join(b.TempDir(), "measurements.bin")
	if err := src.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		m := store.NewMeasurements()
		if err := m.LoadFile(path); err != nil {
			b.Fatal(err)
		}
		if m.Len() != len(recs) {
			b.Fatalf("loaded %d records, want %d", m.Len(), len(recs))
		}
	}
}

// BenchmarkFailoverBootstrap ships a dead primary's 5k records to its
// new mirror in one batched AppendRecords.
func BenchmarkFailoverBootstrap(b *testing.B) {
	recs := syntheticRecords(8, 625, 64, 93)
	parent := b.TempDir()
	b.ReportAllocs()
	iter := 0
	for b.Loop() {
		dir := filepath.Join(parent, fmt.Sprintf("it%d", iter))
		iter++
		m, err := store.NewSegmentMirror(dir)
		if err != nil {
			b.Fatal(err)
		}
		n, err := m.AppendRecords(1, recs)
		if err != nil {
			b.Fatal(err)
		}
		if n != len(recs) {
			b.Fatalf("shipped %d records, want %d", n, len(recs))
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
	}
}
