package stream

import (
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vibepm/internal/feature"
	"vibepm/internal/store"
	"vibepm/internal/transform"
)

// gatedSegment parks an armed Sync until the test releases it: the one
// place a test can hold a durable add open from outside.
type gatedSegment struct {
	f       *os.File
	armed   *atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (s *gatedSegment) Write(p []byte) (int, error) { return s.f.Write(p) }
func (s *gatedSegment) Close() error                { return s.f.Close() }
func (s *gatedSegment) Sync() error {
	if s.armed.CompareAndSwap(true, false) {
		close(s.entered)
		<-s.release
	}
	return s.f.Sync()
}

// durableIngester wires an Ingester the way a durable vibed holds it.
func durableIngester(t *testing.T, live *LiveState, wrap func(string, *os.File) store.SegmentFile) *Ingester {
	t.Helper()
	m := store.NewMeasurements()
	d, _, err := store.OpenDurable(t.TempDir(), store.DurableOptions{Store: m, WAL: store.WALOptions{WrapFile: wrap}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Abort)
	return &Ingester{Store: m, Durable: d, Live: live}
}

// TestFoldRunsDuringTheSync is the proof of the overlap: the WAL's
// fsync is held open until the record's fold has been seen to finish,
// which code that folds after the add can never satisfy (it would sit
// in the timeout below). While the sync is outstanding the memo is
// untouched; once it returns the bundle is planted, once, and the
// ingest counted one fold and one miss.
func TestFoldRunsDuringTheSync(t *testing.T) {
	live := NewLiveState(Config{})
	live.SetFaultDetector(feature.NewFaultDetector(feature.MachineSpec{}))
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	in := durableIngester(t, live, func(_ string, f *os.File) store.SegmentFile {
		return &gatedSegment{f: f, armed: &armed, entered: entered, release: release}
	})
	if stored, err := in.Ingest(mkRec(3, 1, 256)); !stored || err != nil {
		t.Fatalf("first ingest: (%v, %v)", stored, err)
	}

	rec := mkRec(3, 2, 256)
	size0, before, folds0, joins0 := live.Size(), readCounters(), metFoldDur.Count(), metFoldJoin.Count()
	armed.Store(true)
	type result struct {
		stored bool
		err    error
	}
	returned := make(chan result, 1)
	go func() {
		stored, err := in.Ingest(rec)
		returned <- result{stored, err}
	}()

	timeout := time.After(20 * time.Second)
	select {
	case <-entered:
	case <-timeout:
		t.Fatal("the ingest never reached the WAL's fsync")
	}
	for metFoldDur.Count() == folds0 {
		select {
		case <-timeout:
			close(release)
			t.Fatal("no fold finished while the fsync was outstanding: the fold waits for the add")
		case <-time.After(time.Millisecond):
		}
	}
	if got := live.Size(); got != size0 {
		t.Errorf("the memo grew to %d (from %d) while the fsync was outstanding: planted before the ack", got, size0)
	}
	select {
	case r := <-returned:
		t.Fatalf("Ingest returned %+v before its fsync did", r)
	default:
	}
	close(release)
	if r := <-returned; !r.stored || r.err != nil {
		t.Fatalf("Ingest = %+v, want stored", r)
	}

	if got := live.Size() - size0; got != 1 {
		t.Errorf("the memo grew by %d, want 1", got)
	}
	if got := readCounters().since(before); got != (counters{folds: 1, misses: 1}) {
		t.Errorf("counters moved %+v, want one fold and one miss", got)
	}
	if got := metFoldJoin.Count() - joins0; got != 1 {
		t.Errorf("vibepm_stream_fold_join_seconds observed %d joins, want 1", got)
	}
	// The planted bundle is the fold's: a reader hits, and reads what
	// the direct functions return.
	before = readCounters()
	det := live.FaultDetector()
	if got := live.FaultReport(rec); !reflect.DeepEqual(got, det.Detect(rec)) {
		t.Error("the planted bundle's fault report diverged from Detect")
	}
	if got := readCounters().since(before); got != (counters{hits: 1}) {
		t.Errorf("reading the planted record moved %+v, want one hit", got)
	}
}

// TestResendBuysNoFold: a re-send of a held (pump, service time) is
// refused as before and costs no DSP — no fold, no lookup.
func TestResendBuysNoFold(t *testing.T) {
	live := NewLiveState(Config{})
	in := durableIngester(t, live, nil)
	if stored, err := in.Ingest(mkRec(4, 7, 256)); !stored || err != nil {
		t.Fatalf("first ingest: (%v, %v)", stored, err)
	}
	before, folds0 := readCounters(), metFoldDur.Count()
	for i := 0; i < 25; i++ {
		if stored, err := in.Ingest(mkRec(4, 7, 256)); stored || err != nil {
			t.Fatalf("re-send %d: (%v, %v), want a refused duplicate", i, stored, err)
		}
	}
	if got := readCounters().since(before); got != (counters{}) {
		t.Errorf("25 re-sends moved the counters %+v", got)
	}
	if got := metFoldDur.Count() - folds0; got != 0 {
		t.Errorf("25 re-sends ran %d folds", got)
	}
	if live.Size() != 1 || in.Store.Len() != 1 {
		t.Errorf("memo %d, store %d records, want 1 and 1", live.Size(), in.Store.Len())
	}
}

// TestFoldPanicFailsOneIngest: a panic inside the overlapped fold
// surfaces on the caller of that Ingest — where net/http turns it into
// one failed request — not on a bare goroutine, where it would end the
// process. The write itself went through (store and log agree, the
// memo does not hold the record) and the seam keeps working.
func TestFoldPanicFailsOneIngest(t *testing.T) {
	// A Hann window no allocation can satisfy: the peak search panics.
	live := NewLiveState(Config{Harmonic: feature.Options{HannWindow: math.MaxInt}})
	m := store.NewMeasurements()
	dir := t.TempDir()
	d, _, err := store.OpenDurable(dir, store.DurableOptions{Store: m})
	if err != nil {
		t.Fatal(err)
	}
	in := &Ingester{Store: m, Durable: d, Live: live}

	rec := mkRec(5, 1, 256)
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("Ingest returned although its fold panicked")
			}
			if msg, _ := p.(string); !strings.Contains(msg, "makeslice") || !strings.Contains(msg, "computeFeat") {
				t.Fatalf("panic %v does not carry the fold's cause and stack", p)
			}
		}()
		in.Ingest(rec)
	}()
	if live.Size() != 0 {
		t.Fatalf("the memo holds %d records after a failed fold", live.Size())
	}
	if stored, err := in.Ingest(mkRec(5, 1, 256)); stored || err != nil {
		t.Fatalf("retry of the panicked record: (%v, %v), want a refused duplicate", stored, err)
	}

	live.cfg.Harmonic = feature.Options{}
	if stored, err := in.Ingest(mkRec(5, 2, 256)); !stored || err != nil {
		t.Fatalf("next ingest: (%v, %v)", stored, err)
	}
	if live.Size() != 1 || m.Len() != 2 {
		t.Fatalf("memo %d, store %d records, want 1 and 2", live.Size(), m.Len())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := store.NewMeasurements()
	d2, _, err := store.OpenDurable(dir, store.DurableOptions{Store: recovered})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Abort()
	if recovered.Len() != 2 {
		t.Fatalf("the log recovers %d records, the store held 2", recovered.Len())
	}
}

// TestOneBundlePerRecord pins the window between the store insert and
// the plant: a reader that finds the record there folds and plants it
// itself, and the ingest's detached bundle is then dropped — in either
// order a record has one bundle, and the late-comer counts a hit.
func TestOneBundlePerRecord(t *testing.T) {
	ls := NewLiveState(Config{})
	rec := mkRec(8, 1, 256)
	pre := ls.foldDetached(rec)
	if ls.Size() != 0 {
		t.Fatal("a detached fold touched the memo")
	}
	readers := ls.feat(rec)
	before := readCounters()
	if got := ls.lookup(rec, true, pre, nil); got != readers {
		t.Error("planting after a reader replaced the reader's bundle")
	}
	if got := readCounters().since(before); got != (counters{hits: 1}) {
		t.Errorf("the dropped plant moved %+v, want one hit", got)
	}

	rec = mkRec(8, 2, 256)
	pre = ls.foldDetached(rec)
	before = readCounters()
	if got := ls.lookup(rec, true, pre, nil); got != pre {
		t.Error("a miss did not plant the detached bundle")
	}
	if got := readCounters().since(before); got != (counters{misses: 1}) {
		t.Errorf("the plant moved %+v, want one miss and no second fold", got)
	}
	if got := ls.feat(rec); got != pre {
		t.Error("a reader after the plant got another bundle")
	}
	if ls.Size() != 2 || pumpCacheLen(ls, 8) != 2 {
		t.Errorf("memo holds %d / %d bundles for 2 records", ls.Size(), pumpCacheLen(ls, 8))
	}
}

// TestReadersRaceThePlant is the same claim under contention (run with
// -race): writers ingest durably while readers fold whatever the store
// already shows. Every bundle a reader was handed is the one the memo
// ends with, so nothing was planted over it.
func TestReadersRaceThePlant(t *testing.T) {
	live := NewLiveState(Config{})
	in := durableIngester(t, live, nil)
	const pumps, perPump = 4, 24
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	seen := make([]map[*store.Record]*feat, pumps)
	for p := 0; p < pumps; p++ {
		seen[p] = make(map[*store.Record]*feat)
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perPump; i++ {
				if stored, err := in.Ingest(mkRec(p, float64(i), 64)); !stored || err != nil {
					t.Errorf("pump %d record %d: (%v, %v)", p, i, stored, err)
				}
			}
		}()
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				recs := in.Store.All(p)
				for i, f := range live.ensure(p, recs, 0) {
					if was := seen[p][recs[i]]; was != nil && was != f {
						t.Errorf("pump %d: a record changed bundles", p)
					}
					seen[p][recs[i]] = f
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for p := 0; p < pumps; p++ {
		recs := in.Store.All(p)
		for i, f := range live.ensure(p, recs, 0) {
			if was := seen[p][recs[i]]; was != nil && was != f {
				t.Errorf("pump %d: a record's bundle was replaced after a reader held it", p)
			}
		}
	}
	if live.Size() != pumps*perPump {
		t.Errorf("memo holds %d bundles for %d records", live.Size(), pumps*perPump)
	}
}

// TestFoldSharesOneExtraction: at the baseline's training resolution
// the baseline's Hz-pinned options and the raw ones are one extraction,
// run once and used for both; at another rate or length they differ
// and each is extracted. Either way each variant is exactly what
// HarmonicOfRecord returns for its option set, and the fold keeps the
// raw one and the D_a the baseline's scores.
func TestFoldSharesOneExtraction(t *testing.T) {
	opt := feature.Options{}
	base := trainBaseline(t, opt)
	ls := NewLiveState(Config{Harmonic: opt})
	ls.SetBaseline(base)

	slower := mkRec(6, 2, 256)
	slower.SampleRateHz = 2000
	for _, tc := range []struct {
		name   string
		rec    *store.Record
		shared bool
	}{
		{"training rate and length", mkRec(6, 1, 256), true},
		{"half the rate", slower, false},
		{"twice the length", mkRec(6, 3, 512), false},
	} {
		var raw, pinned feature.Harmonic
		transform.UsePSD(tc.rec, func(freq, psd []float64) { raw, pinned = ls.extract(new(peakScratch), freq, psd, base) })
		if !reflect.DeepEqual(raw, feature.HarmonicOfRecord(tc.rec, opt)) {
			t.Errorf("%s: raw variant diverged from HarmonicOfRecord", tc.name)
		}
		if !reflect.DeepEqual(pinned, feature.HarmonicOfRecord(tc.rec, base.Opt)) {
			t.Errorf("%s: baseline variant diverged from HarmonicOfRecord", tc.name)
		}
		if len(raw.Peaks) == 0 || len(pinned.Peaks) == 0 {
			t.Fatalf("%s: fixture extracted no peaks", tc.name)
		}
		if shared := &raw.Peaks[0] == &pinned.Peaks[0]; shared != tc.shared {
			t.Errorf("%s: one extraction for both variants = %v, want %v", tc.name, shared, tc.shared)
		}

		f := ls.feat(tc.rec)
		f.mu.Lock()
		harm, daFor, da := f.harm, f.daFor, f.da
		f.mu.Unlock()
		wantDa, _ := base.Da(tc.rec)
		if !reflect.DeepEqual(harm, raw) || daFor != base || !eqF64(da.val, wantDa) {
			t.Errorf("%s: the fold kept (%d peaks, D_a %g for %p), want (%d peaks, %g for %p)",
				tc.name, len(harm.Peaks), da.val, daFor, len(raw.Peaks), wantDa, base)
		}
	}
}
