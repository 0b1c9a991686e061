package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"vibepm/internal/physics"
)

func randomRecord(rng *rand.Rand, pumpID int, day float64, k int) *Record {
	rec := &Record{
		PumpID:       pumpID,
		ServiceDays:  day,
		SampleRateHz: 4000,
		ScaleG:       100.0 / 32768,
	}
	for axis := 0; axis < 3; axis++ {
		s := make([]int16, k)
		for i := range s {
			s[i] = int16(rng.Intn(65536) - 32768)
		}
		rec.Raw[axis] = s
	}
	return rec
}

func recordsEqual(a, b *Record) bool {
	if a.PumpID != b.PumpID || a.ServiceDays != b.ServiceDays {
		return false
	}
	for axis := 0; axis < 3; axis++ {
		if len(a.Raw[axis]) != len(b.Raw[axis]) {
			return false
		}
		for i := range a.Raw[axis] {
			if a.Raw[axis][i] != b.Raw[axis][i] {
				return false
			}
		}
	}
	return true
}

func TestRecordCodecRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{0, 1, 64, 1024} {
		rec := randomRecord(rng, 7, 123.456, k)
		var buf bytes.Buffer
		if err := EncodeRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRecord(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !recordsEqual(rec, got) {
			t.Fatalf("k=%d roundtrip mismatch", k)
		}
		if got.SampleRateHz != 4000 {
			t.Fatalf("sample rate %g", got.SampleRateHz)
		}
	}
}

func TestRecordCodecErrors(t *testing.T) {
	// Truncated stream.
	if _, err := DecodeRecord([]byte{1, 2, 3}); err == nil {
		t.Fatal("want error for truncated header")
	}
	// Bad magic.
	bad := make([]byte, 30)
	if _, err := DecodeRecord(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
	// Ragged axes refuse to encode.
	rec := &Record{Raw: [3][]int16{make([]int16, 4), make([]int16, 3), make([]int16, 4)}}
	if err := EncodeRecord(io.Discard, rec); err == nil {
		t.Fatal("want error for ragged axes")
	}
}

// TestDecodeRecordAxesDoNotAlias: the three decoded axes share one
// allocation, each capped at its own end, so appending to one axis
// leaves the next untouched.
func TestDecodeRecordAxesDoNotAlias(t *testing.T) {
	rec := randomRecord(rand.New(rand.NewSource(2)), 3, 9.5, 64)
	var buf bytes.Buffer
	if err := EncodeRecord(&buf, rec); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecord(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for axis := 0; axis < 2; axis++ {
		next := append([]int16(nil), got.Raw[axis+1]...)
		grown := append(got.Raw[axis], 12345, -12345)
		if !slices.Equal(got.Raw[axis+1], next) || !slices.Equal(got.Raw[axis+1], rec.Raw[axis+1]) {
			t.Fatalf("appending to axis %d wrote into axis %d", axis, axis+1)
		}
		if !slices.Equal(grown[:len(rec.Raw[axis])], rec.Raw[axis]) {
			t.Fatalf("axis %d lost its samples when it grew", axis)
		}
	}
}

// TestEncodeRecordSameBytesAnyWriter: the in-place encode into a
// bytes.Buffer and the scratch-buffer path of any other writer write
// the documented layout, byte for byte.
func TestEncodeRecordSameBytesAnyWriter(t *testing.T) {
	rec := randomRecord(rand.New(rand.NewSource(3)), 11, 77.25, 100)
	want := binary.LittleEndian.AppendUint32(nil, recordMagic)
	want = binary.LittleEndian.AppendUint16(want, recordVersion)
	want = binary.LittleEndian.AppendUint32(want, uint32(rec.PumpID))
	want = binary.LittleEndian.AppendUint64(want, math.Float64bits(rec.ServiceDays))
	want = binary.LittleEndian.AppendUint32(want, math.Float32bits(float32(rec.SampleRateHz)))
	want = binary.LittleEndian.AppendUint32(want, math.Float32bits(float32(rec.ScaleG)))
	want = binary.LittleEndian.AppendUint32(want, uint32(len(rec.Raw[0])))
	for _, axis := range rec.Raw {
		for _, v := range axis {
			want = binary.LittleEndian.AppendUint16(want, uint16(v))
		}
	}
	buf := bytes.NewBufferString("prefix")
	if err := EncodeRecord(buf, rec); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := EncodeRecord(struct{ io.Writer }{&file}, rec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes()[len("prefix"):], want) || !bytes.Equal(file.Bytes(), want) {
		t.Fatal("encoded bytes differ from the record layout")
	}
}

func TestRecordAxisG(t *testing.T) {
	rec := &Record{ScaleG: 0.5, Raw: [3][]int16{{2, -4}, {0}, {1}}}
	x := rec.AxisG(0)
	if x[0] != 1 || x[1] != -2 {
		t.Fatalf("AxisG = %v", x)
	}
	if rec.Samples() != 2 {
		t.Fatalf("Samples = %d", rec.Samples())
	}
}

func TestMeasurementsAddAndQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMeasurements()
	// Insert out of order.
	for _, day := range []float64{5, 1, 3, 2, 4} {
		m.Add(randomRecord(rng, 1, day, 8))
	}
	m.Add(randomRecord(rng, 2, 1.5, 8))
	if m.Len() != 6 {
		t.Fatalf("Len = %d", m.Len())
	}
	got := m.Query(1, 2, 4)
	if len(got) != 3 {
		t.Fatalf("query returned %d records", len(got))
	}
	for i, want := range []float64{2, 3, 4} {
		if got[i].ServiceDays != want {
			t.Fatalf("record %d at day %g, want %g", i, got[i].ServiceDays, want)
		}
	}
	if ids := m.Pumps(); len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("Pumps = %v", ids)
	}
	if m.Latest(1).ServiceDays != 5 {
		t.Fatalf("Latest day %g", m.Latest(1).ServiceDays)
	}
	if m.Latest(99) != nil {
		t.Fatal("Latest of unknown pump should be nil")
	}
	if all := m.All(1); len(all) != 5 {
		t.Fatalf("All = %d records", len(all))
	}
	if empty := m.Query(1, 10, 20); len(empty) != 0 {
		t.Fatal("out-of-range query should be empty")
	}
}

func TestMeasurementsSaveLoadRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMeasurements()
	for pump := 0; pump < 3; pump++ {
		for day := 0.0; day < 5; day++ {
			m.Add(randomRecord(rng, pump, day, 32))
		}
	}
	path := filepath.Join(t.TempDir(), "store.bin")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded := NewMeasurements()
	if err := loaded.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != m.Len() {
		t.Fatalf("loaded %d records, want %d", loaded.Len(), m.Len())
	}
	for _, pump := range m.Pumps() {
		orig := m.All(pump)
		got := loaded.All(pump)
		if len(orig) != len(got) {
			t.Fatalf("pump %d: %d vs %d", pump, len(orig), len(got))
		}
		for i := range orig {
			if !recordsEqual(orig[i], got[i]) {
				t.Fatalf("pump %d record %d differs", pump, i)
			}
		}
	}
}

func TestMeasurementsLoadBadHeader(t *testing.T) {
	m := NewMeasurements()
	if err := m.Load(bytes.NewReader([]byte("NOT A STORE FILE AT ALL"))); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v", err)
	}
}

func TestMeasurementsConcurrentAccess(t *testing.T) {
	m := NewMeasurements()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				// Workers share pumps but not keys: the store is a set.
				day := float64(w*50 + i)
				m.Add(randomRecord(rng, w%3, day, 4))
				m.Query(w%3, 0, day)
				m.Len()
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != 400 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestLabelsStore(t *testing.T) {
	l := NewLabels()
	if err := l.Add(Label{PumpID: 1, Zone: physics.MergedUnknown, Valid: true}); !errors.Is(err, ErrUnknownZone) {
		t.Fatalf("err = %v", err)
	}
	add := func(pump int, day float64, z physics.MergedZone, valid bool) {
		t.Helper()
		if err := l.Add(Label{PumpID: pump, ServiceDays: day, Zone: z, Valid: valid}); err != nil {
			t.Fatal(err)
		}
	}
	add(1, 2, physics.MergedA, true)
	add(1, 1, physics.MergedBC, true)
	add(0, 5, physics.MergedD, true)
	add(1, 3, physics.MergedD, false) // human mistake: excluded
	if l.Len() != 4 {
		t.Fatalf("Len = %d", l.Len())
	}
	valid := l.Valid()
	if len(valid) != 3 {
		t.Fatalf("valid = %d", len(valid))
	}
	// Sorted by pump then time.
	if valid[0].PumpID != 0 || valid[1].ServiceDays != 1 || valid[2].ServiceDays != 2 {
		t.Fatalf("ordering: %+v", valid)
	}
}

func TestLabelsSaveLoad(t *testing.T) {
	l := NewLabels()
	l.Add(Label{PumpID: 3, ServiceDays: 7, Zone: physics.MergedBC, Source: PhysicalCheck, Valid: true})
	path := filepath.Join(t.TempDir(), "labels.json")
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	fresh := NewLabels()
	if err := fresh.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	got := fresh.Valid()
	if len(got) != 1 || got[0].PumpID != 3 || got[0].Source != PhysicalCheck {
		t.Fatalf("loaded = %+v", got)
	}
	if LabelSource(0).String() != "data-driven" || PhysicalCheck.String() != "physical-check" {
		t.Fatal("label source strings")
	}
}

func TestAnalysisPeriod(t *testing.T) {
	p := AnalysisPeriod{StartDays: 1, EndDays: 3}
	if p.Duration() != 2 {
		t.Fatalf("Duration = %g", p.Duration())
	}
	if !p.Contains(2) || p.Contains(0.5) || p.Contains(3.5) {
		t.Fatal("Contains broken")
	}
}

func TestPeriodManager(t *testing.T) {
	if _, err := NewPeriodManager(AnalysisPeriod{StartDays: 5, EndDays: 1}, 1); !errors.Is(err, ErrBadPeriod) {
		t.Fatalf("err = %v", err)
	}
	m, err := NewPeriodManager(AnalysisPeriod{StartDays: 0, EndDays: 1}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Current().EndDays != 1 {
		t.Fatal("initial period wrong")
	}
	p := m.Refresh()
	if p.EndDays != 1.5 || p.StartDays != 0 {
		t.Fatalf("refreshed to %+v", p)
	}
	// Pinning freezes refresh.
	if err := m.Pin(AnalysisPeriod{StartDays: 10, EndDays: 20}); err != nil {
		t.Fatal(err)
	}
	if got := m.Refresh(); got.EndDays != 20 {
		t.Fatalf("pinned period refreshed: %+v", got)
	}
	if err := m.Pin(AnalysisPeriod{StartDays: 5, EndDays: 1}); !errors.Is(err, ErrBadPeriod) {
		t.Fatalf("err = %v", err)
	}
	// Default step is hourly.
	d, err := NewPeriodManager(AnalysisPeriod{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Refresh(); got.EndDays <= 0 || got.EndDays > 0.05 {
		t.Fatalf("default step: %+v", got)
	}
}

func TestRecordCodecProperty(t *testing.T) {
	f := func(pumpID int32, day float64, samples []int16) bool {
		if len(samples) > 4096 {
			samples = samples[:4096]
		}
		rec := &Record{
			PumpID:      int(pumpID),
			ServiceDays: day,
			ScaleG:      0.003,
		}
		for axis := 0; axis < 3; axis++ {
			rec.Raw[axis] = append([]int16(nil), samples...)
		}
		var buf bytes.Buffer
		if err := EncodeRecord(&buf, rec); err != nil {
			return false
		}
		got, err := DecodeRecord(buf.Bytes())
		if err != nil {
			return false
		}
		// NaN service days cannot compare equal; skip those.
		if day != day {
			return true
		}
		return recordsEqual(rec, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasurementsLoadTruncatedFile(t *testing.T) {
	// Failure injection: a store file cut off mid-record must load with
	// a descriptive error, not a panic or silent partial load.
	rng := rand.New(rand.NewSource(9))
	m := NewMeasurements()
	for day := 0.0; day < 4; day++ {
		m.Add(randomRecord(rng, 0, day, 64))
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) / 2, 20, 11} {
		truncated := full[:cut]
		fresh := NewMeasurements()
		if err := fresh.Load(bytes.NewReader(truncated)); err == nil {
			t.Fatalf("truncation at %d loaded without error", cut)
		}
	}
}

func TestMeasurementsLoadCorruptedRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := NewMeasurements()
	m.Add(randomRecord(rng, 0, 1, 64))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the first record's magic (after the 10-byte header, the
	// 8-byte count and the 12-byte frame header): the frame's CRC fails
	// before the record is ever decoded.
	data[len(storeHeader)+8+walHeaderLen] ^= 0xFF
	fresh := NewMeasurements()
	if err := fresh.Load(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "record 0 of 1") {
		t.Fatalf("err = %v, want one naming record 0 of 1", err)
	}
}

func TestDecodeRecordImplausibleSampleCount(t *testing.T) {
	// A header claiming 2^31 samples must be rejected before any
	// allocation is attempted.
	rng := rand.New(rand.NewSource(11))
	rec := randomRecord(rng, 0, 1, 4)
	var buf bytes.Buffer
	if err := EncodeRecord(&buf, rec); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Sample count lives at bytes 26..30 of the record header.
	data[26], data[27], data[28], data[29] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := DecodeRecord(data); err == nil {
		t.Fatal("implausible sample count accepted")
	}
}
