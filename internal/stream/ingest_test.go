package stream

import (
	"errors"
	"math"
	"os"
	"testing"

	"vibepm/internal/store"
)

// sizeWatchSegment reports the live-state size seen while the WAL is
// being written, i.e. strictly inside Durable.AddUnique.
type sizeWatchSegment struct {
	f      *os.File
	live   *LiveState
	during *[]int
}

func (s *sizeWatchSegment) Write(p []byte) (int, error) {
	*s.during = append(*s.during, s.live.Size())
	return s.f.Write(p)
}
func (s *sizeWatchSegment) Sync() error  { return s.f.Sync() }
func (s *sizeWatchSegment) Close() error { return s.f.Close() }

// TestIngestAckThenFold drives the one Ingest through every store
// wiring and record shape and pins, for each: what is reported, that
// the store holds the record iff it was acknowledged, and that the
// live state folds a record iff it was acknowledged — and on the
// durable path never while the WAL append is still in flight.
func TestIngestAckThenFold(t *testing.T) {
	shaped := func(x, y, z int) *store.Record {
		rec := mkRec(1, 2.5, 4)
		rec.Raw[0], rec.Raw[1], rec.Raw[2] = make([]int16, x), make([]int16, y), make([]int16, z)
		return rec
	}
	huge := mkRec(1, 2.5, 4)
	big := make([]int16, store.MaxSamplesPerAxis+1)
	huge.Raw[0], huge.Raw[1], huge.Raw[2] = big, big, big

	// with returns a storable record with one metadata field replaced.
	with := func(set func(*store.Record)) *store.Record {
		rec := mkRec(1, 2.5, 64)
		set(rec)
		return rec
	}
	const fullScale = math.MaxInt16 + 1

	type wiring struct {
		durable bool
		wedged  bool
	}
	wirings := map[string]wiring{
		"plain":          {},
		"durable":        {durable: true},
		"durable-wedged": {durable: true, wedged: true},
	}
	cases := []struct {
		name    string
		rec     *store.Record
		prior   *store.Record // ingested first, on a healthy log
		stored  bool
		invalid bool
	}{
		{name: "fresh", rec: mkRec(1, 2.5, 64), stored: true},
		{name: "duplicate-key", rec: mkRec(1, 2.5, 64), prior: mkRec(1, 2.5, 32)},
		{name: "unequal-axes", rec: shaped(4, 4, 3), invalid: true},
		{name: "empty-axes", rec: shaped(0, 0, 0), invalid: true},
		{name: "over-max-samples", rec: huge, invalid: true},
		// Metadata that would overflow the analysis (or the codec's
		// float32 header) of an acknowledged record.
		{name: "scale-overflows", rec: with(func(r *store.Record) { r.ScaleG = 1e306 }), invalid: true},
		{name: "scale-past-bound", rec: with(func(r *store.Record) { r.ScaleG = 1.01 * MaxFullScaleG / fullScale }), invalid: true},
		{name: "scale-negative-overflows", rec: with(func(r *store.Record) { r.ScaleG = -1e306 }), invalid: true},
		{name: "scale-inf", rec: with(func(r *store.Record) { r.ScaleG = math.Inf(1) }), invalid: true},
		{name: "scale-nan", rec: with(func(r *store.Record) { r.ScaleG = math.NaN() }), invalid: true},
		{name: "scale-at-bound", rec: with(func(r *store.Record) { r.ScaleG = MaxFullScaleG / fullScale }), stored: true},
		{name: "rate-near-zero", rec: with(func(r *store.Record) { r.SampleRateHz = 1e-6 }), invalid: true},
		{name: "rate-zero", rec: with(func(r *store.Record) { r.SampleRateHz = 0 }), invalid: true},
		{name: "rate-overflows", rec: with(func(r *store.Record) { r.SampleRateHz = 1e308 }), invalid: true},
		{name: "rate-nan", rec: with(func(r *store.Record) { r.SampleRateHz = math.NaN() }), invalid: true},
		{name: "rate-at-min", rec: with(func(r *store.Record) { r.SampleRateHz = MinSampleRateHz }), stored: true},
		{name: "rate-at-max", rec: with(func(r *store.Record) { r.SampleRateHz = MaxSampleRateHz }), stored: true},
		{name: "days-nan", rec: with(func(r *store.Record) { r.ServiceDays = math.NaN() }), invalid: true},
		{name: "days-inf", rec: with(func(r *store.Record) { r.ServiceDays = math.Inf(-1) }), invalid: true},
	}
	for wname, w := range wirings {
		for _, tc := range cases {
			t.Run(wname+"/"+tc.name, func(t *testing.T) {
				live := NewLiveState(Config{})
				in := &Ingester{Store: store.NewMeasurements(), Live: live}
				var during []int
				if w.durable {
					d, _, err := store.OpenDurable(t.TempDir(), store.DurableOptions{
						Store: in.Store,
						WAL: store.WALOptions{WrapFile: func(_ string, f *os.File) store.SegmentFile {
							return &sizeWatchSegment{f: f, live: live, during: &during}
						}},
					})
					if err != nil {
						t.Fatal(err)
					}
					defer d.Abort()
					in.Durable = d
				}
				// Ingest rounds the record's scale and rate in place: each
				// wiring gets its own copy of the case's record.
				rec := *tc.rec
				if tc.prior != nil {
					prior := *tc.prior
					if stored, err := in.Ingest(&prior); !stored || err != nil {
						t.Fatalf("prior ingest: stored=%v err=%v", stored, err)
					}
				}
				if w.wedged {
					if err := in.Durable.WAL().Close(); err != nil {
						t.Fatal(err)
					}
				}
				sizeBefore, lenBefore := live.Size(), in.Store.Len()
				during = during[:0]

				stored, err := in.Ingest(&rec)

				wantStored := tc.stored && !w.wedged
				wantErr := tc.invalid || w.wedged
				if stored != wantStored || (err != nil) != wantErr {
					t.Fatalf("Ingest = (%v, %v), want stored=%v error=%v", stored, err, wantStored, wantErr)
				}
				if tc.invalid != errors.Is(err, ErrInvalidRecord) {
					t.Fatalf("err = %v, ErrInvalidRecord expected: %v", err, tc.invalid)
				}
				grew := 0
				if wantStored {
					grew = 1
				}
				if got := in.Store.Len() - lenBefore; got != grew {
					t.Fatalf("store grew by %d, want %d", got, grew)
				}
				if got := live.Size() - sizeBefore; got != grew {
					t.Fatalf("live state grew by %d, want %d", got, grew)
				}
				if tc.invalid && len(during) != 0 {
					t.Fatal("an invalid record reached the write-ahead log")
				}
				if w.durable && !w.wedged && !tc.invalid && len(during) == 0 {
					t.Fatal("the durable path never wrote the write-ahead log")
				}
				for _, size := range during {
					if size != sizeBefore {
						t.Fatalf("live state held %d records during the WAL append, %d before it: folded before the ack", size, sizeBefore)
					}
				}
			})
		}
	}
}

// TestIngestWithoutLiveState: the fold is optional, the store write is
// not.
func TestIngestWithoutLiveState(t *testing.T) {
	in := &Ingester{Store: store.NewMeasurements()}
	if stored, err := in.Ingest(mkRec(1, 0.5, 16)); !stored || err != nil {
		t.Fatalf("Ingest = (%v, %v)", stored, err)
	}
	if in.Store.Len() != 1 {
		t.Fatalf("store holds %d records", in.Store.Len())
	}
}
