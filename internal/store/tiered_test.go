package store

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tieredRec builds one record with a vibration-like tone waveform.
func tieredRec(pump int, day float64, k int) *Record {
	rec := &Record{
		PumpID:       pump,
		ServiceDays:  day,
		SampleRateHz: 8000,
		ScaleG:       0.003,
	}
	for axis := 0; axis < 3; axis++ {
		samples := make([]int16, k)
		for i := range samples {
			samples[i] = int16(1500 * math.Sin(2*math.Pi*50*float64(i+axis)/8000))
		}
		rec.Raw[axis] = samples
	}
	return rec
}

// axis0RMS is the injected test metric: RMS of axis 0 in g.
func axis0RMS(rec *Record) float64 {
	var sum float64
	for _, v := range rec.Raw[0] {
		g := float64(v) * rec.ScaleG
		sum += g * g
	}
	if len(rec.Raw[0]) == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(len(rec.Raw[0])))
}

var testColdMetrics = []ColdMetric{{Name: "rms", Fn: axis0RMS}}

func buildPartitionData(from, to float64, recs ...*Record) *PartitionData {
	data := &PartitionData{FromDays: from, ToDays: to, Metrics: []string{"rms"}, Pumps: map[int]*PartitionPump{}}
	for _, rec := range recs {
		pp := data.Pumps[rec.PumpID]
		if pp == nil {
			pp = &PartitionPump{MetricValues: [][]float64{nil}}
			data.Pumps[rec.PumpID] = pp
		}
		pp.Records = append(pp.Records, rec)
		pp.MetricValues[0] = append(pp.MetricValues[0], axis0RMS(rec))
	}
	return data
}

// recordSetsEqual compares two record sets via their canonical encoding.
func recordSetsEqual(t *testing.T, got, want []*Record) {
	t.Helper()
	var gb, wb bytes.Buffer
	g, w := NewMeasurements(), NewMeasurements()
	for _, rec := range got {
		g.AddUnique(rec)
	}
	for _, rec := range want {
		w.AddUnique(rec)
	}
	if g.Len() != w.Len() {
		t.Fatalf("got %d unique records, want %d", g.Len(), w.Len())
	}
	if err := g.Save(&gb); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatal("record sets differ byte-wise")
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var recs []*Record
	for pump := 1; pump <= 3; pump++ {
		for i := 0; i < 20; i++ {
			recs = append(recs, tieredRec(pump, float64(i)*0.25, 256))
		}
	}
	data := buildPartitionData(0, 5, recs...)
	path := filepath.Join(dir, partitionName(0, 5))
	if err := WritePartition(path, data, nil); err != nil {
		t.Fatal(err)
	}
	part, err := OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	if part.FromDays() != 0 || part.ToDays() != 5 {
		t.Fatalf("span [%g,%g), want [0,5)", part.FromDays(), part.ToDays())
	}
	if part.Len() != len(recs) {
		t.Fatalf("Len=%d want %d", part.Len(), len(recs))
	}
	for pump := 1; pump <= 3; pump++ {
		got, err := part.Records(pump)
		if err != nil {
			t.Fatal(err)
		}
		var want []*Record
		for _, rec := range recs {
			if rec.PumpID == pump {
				want = append(want, rec)
			}
		}
		recordSetsEqual(t, got, want)
		series := part.TrendSeries(pump, "rms")
		if len(series) != len(want) {
			t.Fatalf("pump %d trend series has %d points, want %d", pump, len(series), len(want))
		}
		for i, pt := range series {
			if pt.ServiceDays != want[i].ServiceDays {
				t.Fatalf("trend day %v want %v", pt.ServiceDays, want[i].ServiceDays)
			}
			if math.Float64bits(pt.Value) != math.Float64bits(axis0RMS(want[i])) {
				t.Fatalf("trend value not bit-identical at %d", i)
			}
		}
		if !part.Contains(pump, want[3].ServiceDays) {
			t.Fatal("Contains false for a held record")
		}
		if part.Contains(pump, 4.99) {
			t.Fatal("Contains true for an absent time")
		}
	}
	if part.TrendSeries(99, "rms") != nil {
		t.Fatal("series for an absent pump")
	}
	if part.TrendSeries(1, "nope") != nil {
		t.Fatal("series for an absent metric")
	}
}

// TestPartitionCompressionRatio pins the acceptance bound: a partition
// of waveform records is >= 2x smaller than the raw snapshot encoding
// of the same records.
func TestPartitionCompressionRatio(t *testing.T) {
	dir := t.TempDir()
	var recs []*Record
	for pump := 1; pump <= 4; pump++ {
		for i := 0; i < 30; i++ {
			recs = append(recs, tieredRec(pump, float64(i)*0.25, 4096))
		}
	}
	data := buildPartitionData(0, 10, recs...)
	path := filepath.Join(dir, partitionName(0, 10))
	if err := WritePartition(path, data, nil); err != nil {
		t.Fatal(err)
	}
	part, err := OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	// RawBytes is the per-record EncodeRecord size; cross-check it
	// against an actual Save, which adds 12 B of frame header per record.
	m := NewMeasurements()
	for _, rec := range recs {
		m.Add(rec)
	}
	var raw bytes.Buffer
	if err := m.Save(&raw); err != nil {
		t.Fatal(err)
	}
	if diff := raw.Len() - walHeaderLen*len(recs) - int(part.RawBytes()); diff < 0 || diff > 64 {
		t.Fatalf("RawBytes=%d but Save produced %d bytes", part.RawBytes(), raw.Len())
	}
	ratio := float64(part.RawBytes()) / float64(part.CompressedBytes())
	if ratio < 2 {
		t.Fatalf("compression ratio %.2f, want >= 2 (compressed=%d raw=%d)", ratio, part.CompressedBytes(), part.RawBytes())
	}
	t.Logf("partition compression ratio: %.2fx (%d -> %d bytes)", ratio, part.RawBytes(), part.CompressedBytes())
}

func TestPartitionRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	data := buildPartitionData(0, 1, tieredRec(1, 0.5, 128))
	path := filepath.Join(dir, partitionName(0, 1))
	if err := WritePartition(path, data, nil); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },             // bit flip
		func(b []byte) []byte { return b[:len(b)-9] },                       // truncation
		func(b []byte) []byte { return append(b, 0xAB) },                    // trailing junk
		func(b []byte) []byte { copy(b, "NOTCOLD1\n"); return b },           // wrong magic
		func(b []byte) []byte { b[len(partitionHeader)] ^= 0xFF; return b }, // version
	} {
		bad := mutate(append([]byte(nil), buf...))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenPartition(path); !errors.Is(err, ErrBadPartition) {
			t.Fatalf("corrupt partition opened: err=%v", err)
		}
	}
}

func TestColdStoreOpenIgnoresTempFiles(t *testing.T) {
	dir := t.TempDir()
	data := buildPartitionData(0, 1, tieredRec(1, 0.5, 64))
	if err := WritePartition(filepath.Join(dir, partitionName(0, 1)), data, nil); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, partitionName(1, 2)+".tmp1234")
	if err := os.WriteFile(tmp, []byte("partial partition write"), 0o644); err != nil {
		t.Fatal(err)
	}
	cold, err := OpenColdStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cold.Partitions()); got != 1 {
		t.Fatalf("%d partitions, want 1", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover temp file not cleaned up")
	}
	if cold.UpTo() != 1 {
		t.Fatalf("UpTo=%g want 1", cold.UpTo())
	}
}

// openTiered opens a durable store with fast-compacting tiered options.
func openTiered(t *testing.T, dir string) *Durable {
	t.Helper()
	d, _, err := OpenDurable(dir, DurableOptions{
		WAL: WALOptions{Policy: SyncNever},
		Tiered: &TieredOptions{
			HotWindowDays: 4,
			PartitionDays: 2,
			Metrics:       testColdMetrics,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// tieredUnion collects every record visible across hot and cold tiers.
func tieredUnion(t *testing.T, d *Durable) []*Record {
	t.Helper()
	var out []*Record
	for _, id := range d.Store().Pumps() {
		out = append(out, d.Store().All(id)...)
	}
	if d.Cold() != nil {
		for _, id := range d.Cold().Pumps() {
			recs, err := d.Cold().Records(id)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, recs...)
		}
	}
	return out
}

func TestTieredCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir)
	var acked []*Record
	for pump := 1; pump <= 3; pump++ {
		for i := 0; i < 48; i++ { // days 0 .. 11.75
			rec := tieredRec(pump, float64(i)*0.25, 128)
			if _, err := d.AddUnique(rec); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, rec)
		}
	}
	stats, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// latest=11.75, hot window 4 → cutoff=floor(7.75/2)*2=6: partitions
	// [0,2) [2,4) [4,6).
	if stats.Compaction.PartitionsWritten != 3 {
		t.Fatalf("wrote %d partitions, want 3", stats.Compaction.PartitionsWritten)
	}
	if got := d.Cold().UpTo(); got != 6 {
		t.Fatalf("cold UpTo=%g want 6", got)
	}
	if stats.Compaction.RecordsCompacted != stats.Compaction.RecordsEvicted {
		t.Fatalf("compacted %d but evicted %d", stats.Compaction.RecordsCompacted, stats.Compaction.RecordsEvicted)
	}
	// Hot now starts at the cutoff; cold holds everything below it.
	for _, id := range d.Store().Pumps() {
		for _, rec := range d.Store().All(id) {
			if rec.ServiceDays < 6 {
				t.Fatalf("hot record at day %g below the cold bound", rec.ServiceDays)
			}
		}
	}
	recordSetsEqual(t, tieredUnion(t, d), acked)

	// A second checkpoint with no new data writes nothing new.
	stats2, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Compaction.PartitionsWritten != 0 || stats2.Compaction.RecordsEvicted != 0 {
		t.Fatalf("idle checkpoint compacted: %+v", stats2.Compaction)
	}
	d.Abort()

	// Reopen: hot (snapshot+WAL) and cold together still cover all acks.
	d2 := openTiered(t, dir)
	recordSetsEqual(t, tieredUnion(t, d2), acked)
	if got := d2.Cold().UpTo(); got != 6 {
		t.Fatalf("reopened cold UpTo=%g want 6", got)
	}
	d2.Abort()
}

// countingFile counts the bytes written through it into *n.
type countingFile struct {
	*os.File
	n *int64
}

func (c countingFile) Write(p []byte) (int, error) {
	n, err := c.File.Write(p)
	*c.n += int64(n)
	return n, err
}

// TestOneWrapperSeesEveryFileKind pins the disk seam: the one wrapper
// a durable store takes observes every byte of one tiered checkpoint —
// the rotated segment's header, each partition temp and the snapshot
// temp — and the temps it saw are the files that were renamed in.
func TestOneWrapperSeesEveryFileKind(t *testing.T) {
	dir := t.TempDir()
	var segment, partition, snapshot int64
	d, _, err := OpenDurable(dir, DurableOptions{
		WAL: WALOptions{Policy: SyncNever, WrapFile: func(path string, f *os.File) SegmentFile {
			switch base := filepath.Base(path); {
			case strings.HasSuffix(base, walSegSuffix):
				return countingFile{f, &segment}
			case strings.HasPrefix(base, "part-") && strings.Contains(base, partitionSuffix+tempInfix):
				return countingFile{f, &partition}
			case strings.HasPrefix(base, snapshotName+tempInfix):
				return countingFile{f, &snapshot}
			}
			t.Errorf("wrapper handed an unexpected file %s", path)
			return f
		}},
		Tiered: &TieredOptions{HotWindowDays: 4, PartitionDays: 2, Metrics: testColdMetrics},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Abort()
	for i := 0; i < 48; i++ { // days 0 .. 11.75
		if _, err := d.AddUnique(tieredRec(1, float64(i)*0.25, 64)); err != nil {
			t.Fatal(err)
		}
	}
	appended := segment
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := segment - appended; got != int64(len(walSegHeader)) {
		t.Fatalf("checkpoint wrote %d segment bytes through the wrapper, want the rotated segment's %d-byte header", got, len(walSegHeader))
	}
	var onDisk int64
	for _, p := range d.Cold().Partitions() {
		onDisk += p.CompressedBytes()
	}
	if partition == 0 || partition != onDisk {
		t.Fatalf("wrapper saw %d partition temp bytes, the renamed partitions hold %d", partition, onDisk)
	}
	st, err := os.Stat(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if snapshot == 0 || snapshot != st.Size() {
		t.Fatalf("wrapper saw %d snapshot temp bytes, %s holds %d", snapshot, snapshotName, st.Size())
	}
}

// TestOpenDurableSweepsStaleTemps: a checkpoint killed before its
// rename leaves a snapshot-sized temp behind. The next open must
// remove it — and must not mistake it for the snapshot.
func TestOpenDurableSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir)
	var acked []*Record
	add := func(from, to int) {
		for i := from; i < to; i++ {
			rec := tieredRec(2, float64(i)*0.25, 64)
			if _, err := d.AddUnique(rec); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, rec)
		}
	}
	add(0, 20)
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	add(20, 30) // the WAL tail on top of the snapshot
	d.Abort()

	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string][]byte{
		snapshotName + ".tmp123": []byte("not a snapshot"),
		snapshotName + ".tmp456": snap[:len(snap)/2], // a real one, torn
	} {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	re := openTiered(t, dir)
	defer re.Abort()
	recordSetsEqual(t, tieredUnion(t, re), acked)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), tempInfix) {
			t.Fatalf("stale temp %s survived the reopen", e.Name())
		}
	}
}

// TestTieredLateArrivalStaysHot pins the straggler rule: a record
// landing below the cold coverage bound after its partition was cut is
// kept hot forever rather than lost or double-stored.
func TestTieredLateArrivalStaysHot(t *testing.T) {
	dir := t.TempDir()
	d := openTiered(t, dir)
	var acked []*Record
	for i := 0; i < 48; i++ {
		rec := tieredRec(1, float64(i)*0.25, 64)
		if _, err := d.AddUnique(rec); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, rec)
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	late := tieredRec(2, 1.1, 64) // below UpTo=6, never partitioned
	if _, err := d.AddUnique(late); err != nil {
		t.Fatal(err)
	}
	acked = append(acked, late)
	for i := 0; i < 2; i++ {
		if _, err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if d.Store().Generation(2) == 0 {
			t.Fatal("late arrival evicted from the hot store")
		}
		recordSetsEqual(t, tieredUnion(t, d), acked)
	}
	d.Abort()
}

func TestRetentionDropsWholePartitions(t *testing.T) {
	dir := t.TempDir()
	for span := 0; span < 4; span++ {
		data := buildPartitionData(float64(span), float64(span+1), tieredRec(1, float64(span)+0.5, 512))
		if err := WritePartition(filepath.Join(dir, partitionName(float64(span), float64(span+1))), data, nil); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := OpenColdStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen := cold.Generation()

	// Age: latest=10, max age 7.5 → spans ending at 1 and 2 drop.
	dropped, err := cold.ApplyRetention(RetentionPolicy{MaxAgeDays: 7.5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Fatalf("age retention dropped %d, want 2", dropped)
	}
	if cold.Generation() == gen {
		t.Fatal("generation did not advance on retention drop")
	}
	st := cold.Stats()
	if st.Partitions != 2 || st.OldestDays != 2 {
		t.Fatalf("stats after age retention: %+v", st)
	}
	if cold.UpTo() != 4 {
		t.Fatalf("UpTo dropped to %g; retention must not lower coverage", cold.UpTo())
	}

	// Bytes: budget below one partition → everything drops.
	oneSize := cold.Partitions()[0].CompressedBytes()
	dropped, err = cold.ApplyRetention(RetentionPolicy{MaxBytes: oneSize - 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Fatalf("byte retention dropped %d, want 2", dropped)
	}
	if got := len(cold.Partitions()); got != 0 {
		t.Fatalf("%d partitions left, want 0", got)
	}
	// Reopen agrees with the on-disk state.
	cold2, err := OpenColdStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cold2.Partitions()); got != 0 {
		t.Fatalf("reopen found %d partitions, want 0", got)
	}
}

func TestParseRetention(t *testing.T) {
	cases := []struct {
		in      string
		want    RetentionPolicy
		wantErr bool
	}{
		{in: "", want: RetentionPolicy{}},
		{in: "age=90d", want: RetentionPolicy{MaxAgeDays: 90}},
		{in: "age=1.5", want: RetentionPolicy{MaxAgeDays: 1.5}},
		{in: "bytes=512MB", want: RetentionPolicy{MaxBytes: 512 << 20}},
		{in: "bytes=1GB", want: RetentionPolicy{MaxBytes: 1 << 30}},
		{in: "bytes=100", want: RetentionPolicy{MaxBytes: 100}},
		{in: "age=30d, bytes=2KB", want: RetentionPolicy{MaxAgeDays: 30, MaxBytes: 2048}},
		{in: "age=-3", wantErr: true},
		{in: "age=", wantErr: true},
		{in: "bytes=lots", wantErr: true},
		{in: "ttl=3d", wantErr: true},
		{in: "age", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseRetention(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("ParseRetention(%q): no error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseRetention(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("ParseRetention(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestEvictBefore(t *testing.T) {
	m := NewMeasurements()
	for pump := 1; pump <= 2; pump++ {
		for i := 0; i < 10; i++ {
			m.Add(tieredRec(pump, float64(i), 8))
		}
	}
	gen1 := m.Generation(1)
	// Cover only pump 1's records below day 5.
	evicted := m.EvictBefore(5, func(pumpID int, day float64) bool { return pumpID == 1 })
	if evicted != 5 {
		t.Fatalf("evicted %d, want 5", evicted)
	}
	if m.Len() != 15 {
		t.Fatalf("Len=%d want 15", m.Len())
	}
	if len(m.All(1)) != 5 || len(m.All(2)) != 10 {
		t.Fatalf("per-pump counts: %d, %d", len(m.All(1)), len(m.All(2)))
	}
	if m.Generation(1) == gen1 {
		t.Fatal("eviction did not bump the series generation")
	}
	if m.All(1)[0].ServiceDays != 5 {
		t.Fatalf("pump 1 starts at %g, want 5", m.All(1)[0].ServiceDays)
	}
	// Nothing below the cutoff → no-op, no generation churn.
	gen2 := m.Generation(2)
	if n := m.EvictBefore(5, func(int, float64) bool { return false }); n != 0 {
		t.Fatalf("evicted %d, want 0", n)
	}
	if m.Generation(2) != gen2 {
		t.Fatal("no-op eviction bumped a generation")
	}
}

func TestMaxServiceDays(t *testing.T) {
	m := NewMeasurements()
	if got := m.MaxServiceDays(); got != 0 {
		t.Fatalf("empty store MaxServiceDays=%g", got)
	}
	m.Add(tieredRec(1, 3, 8))
	m.Add(tieredRec(17, 9.5, 8)) // different shard
	m.Add(tieredRec(2, 7, 8))
	if got := m.MaxServiceDays(); got != 9.5 {
		t.Fatalf("MaxServiceDays=%g want 9.5", got)
	}
}

// TestRetirePartialFailureAccounting pins the Retire bugfix: when a
// removal fails partway, the prefix that did get removed must advance
// firstSeg and reach the retired metric, so a retry cannot under-count.
func TestRetirePartialFailureAccounting(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for seg := 0; seg < 3; seg++ {
		if err := w.Append(tieredRec(1, float64(seg), 8)); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	// Segments are 1-based: after three Append+Rotate rounds segments
	// 1..3 are sealed and segment 4 is current. Make segment 2
	// unremovable: replace the file with a non-empty directory, so
	// os.Remove fails with ENOTEMPTY even when the test runs as root
	// (permission tricks would not).
	blocked := segmentPath(dir, 2)
	if err := os.Remove(blocked); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(blocked, "pin"), 0o755); err != nil {
		t.Fatal(err)
	}

	before := metWALSegRetired.Value()
	removed, err := w.Retire(4)
	if err == nil {
		t.Fatal("Retire succeeded through an unremovable segment")
	}
	if removed != 1 {
		t.Fatalf("partial Retire removed %d, want 1", removed)
	}
	if got := metWALSegRetired.Value() - before; got != 1 {
		t.Fatalf("metric counted %d after partial failure, want 1", got)
	}
	w.mu.Lock()
	first := w.firstSeg
	w.mu.Unlock()
	if first != 2 {
		t.Fatalf("firstSeg=%d after partial failure, want 2 (the failed segment)", first)
	}

	// Unblock and retry: segment 2 became IsNotExist via RemoveAll, so
	// only segment 3 is removed from disk — yet the total comes out
	// exact, not under-counted, because the first pass already counted
	// its prefix.
	if err := os.RemoveAll(blocked); err != nil {
		t.Fatal(err)
	}
	removed, err = w.Retire(4)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("retry removed %d, want 1", removed)
	}
	if got := metWALSegRetired.Value() - before; got != 2 {
		t.Fatalf("metric counted %d total, want 2 (every on-disk removal)", got)
	}
	w.mu.Lock()
	first = w.firstSeg
	w.mu.Unlock()
	if first != 4 {
		t.Fatalf("firstSeg=%d after retry, want 4", first)
	}
}
