package store

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// TestShardedStoreConcurrentHammer drives Add, AddUnique, Query, All,
// Latest, Pumps, Len, Generation, and Save from many goroutines at
// once. Run under -race it is the store's concurrency contract; the
// final consistency checks catch lost updates.
func TestShardedStoreConcurrentHammer(t *testing.T) {
	m := NewMeasurements()
	const (
		writers  = 8
		perPump  = 50
		pumps    = 24 // more pumps than shards, so shards are shared
		readers  = 4
		savers   = 2
		expected = writers * perPump
	)
	var writeWG, readWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perPump; i++ {
				rec := &Record{
					PumpID:      (w*perPump + i) % pumps,
					ServiceDays: float64(w*perPump+i) / 7,
					Raw:         [3][]int16{{int16(i)}, {int16(i)}, {int16(i)}},
				}
				if i%2 == 0 {
					m.Add(rec)
				} else if !m.AddUnique(rec) {
					t.Error("AddUnique rejected a unique service time")
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := rng.Intn(pumps)
				m.Query(id, 0, 1e9)
				m.All(id)
				m.Latest(id)
				m.Pumps()
				m.Len()
				m.Generation(id)
				m.GenerationTotal()
			}
		}(r)
	}
	for s := 0; s < savers; s++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for i := 0; i < 5; i++ {
				if err := m.Save(io.Discard); err != nil {
					t.Errorf("concurrent Save: %v", err)
				}
			}
		}()
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	if got := m.Len(); got != expected {
		t.Fatalf("Len = %d, want %d", got, expected)
	}
	total := 0
	for _, id := range m.Pumps() {
		recs := m.All(id)
		total += len(recs)
		for i := 1; i < len(recs); i++ {
			if recs[i-1].ServiceDays > recs[i].ServiceDays {
				t.Fatalf("pump %d out of order at %d", id, i)
			}
		}
		if m.Generation(id) == 0 {
			t.Fatalf("pump %d has records but generation 0", id)
		}
	}
	if total != expected {
		t.Fatalf("sum of series lengths = %d, want %d", total, expected)
	}
}

// TestSaveLoadRoundTripSharded checks the on-disk format survives the
// sharded rewrite: global pump order ascending, per-pump time order,
// and a correct record count.
func TestSaveLoadRoundTripSharded(t *testing.T) {
	m := NewMeasurements()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		m.Add(&Record{
			PumpID:       rng.Intn(40), // spans several shards, ids unordered
			ServiceDays:  rng.Float64() * 100,
			SampleRateHz: 4000,
			ScaleG:       0.003,
			Raw:          [3][]int16{{int16(i)}, {int16(i + 1)}, {int16(i + 2)}},
		})
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewMeasurements()
	if err := fresh.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != m.Len() {
		t.Fatalf("Len after round trip = %d, want %d", fresh.Len(), m.Len())
	}
	wantPumps := m.Pumps()
	gotPumps := fresh.Pumps()
	if fmt.Sprint(gotPumps) != fmt.Sprint(wantPumps) {
		t.Fatalf("Pumps = %v, want %v", gotPumps, wantPumps)
	}
	for _, id := range wantPumps {
		want := m.All(id)
		got := fresh.All(id)
		if len(want) != len(got) {
			t.Fatalf("pump %d: %d records, want %d", id, len(got), len(want))
		}
		for i := range want {
			if want[i].ServiceDays != got[i].ServiceDays || want[i].Raw[0][0] != got[i].Raw[0][0] {
				t.Fatalf("pump %d record %d differs", id, i)
			}
		}
		if fresh.Generation(id) == 0 {
			t.Fatalf("pump %d: Load must assign a fresh non-zero generation", id)
		}
	}
}

// TestGenerationSemantics pins the generation contract: 0 for an
// unknown pump, moves on every Add/AddUnique insert, does not move on
// a suppressed duplicate (through either name), and is independent
// across pumps.
func TestGenerationSemantics(t *testing.T) {
	m := NewMeasurements()
	if g := m.Generation(1); g != 0 {
		t.Fatalf("empty pump generation = %d, want 0", g)
	}
	rec := func(id int, day float64) *Record {
		return &Record{PumpID: id, ServiceDays: day, Raw: [3][]int16{{1}, {1}, {1}}}
	}
	m.Add(rec(1, 0))
	g1 := m.Generation(1)
	if g1 == 0 {
		t.Fatal("generation must be non-zero after Add")
	}
	other := m.Generation(2)
	m.Add(rec(1, 1))
	g2 := m.Generation(1)
	if g2 == g1 {
		t.Fatal("generation must move on Add")
	}
	if m.Generation(2) != other {
		t.Fatal("pump 2 generation moved on a pump 1 write")
	}
	if m.AddUnique(rec(1, 1)) {
		t.Fatal("duplicate AddUnique must be suppressed")
	}
	if m.Generation(1) != g2 {
		t.Fatal("suppressed duplicate must not move the generation")
	}
	// Add is the same insert: a held key leaves the store as it was,
	// first record in place.
	held, n, total := m.Latest(1), m.Len(), m.GenerationTotal()
	m.Add(rec(1, 1))
	if m.Len() != n || m.Generation(1) != g2 || m.GenerationTotal() != total || m.Latest(1) != held {
		t.Fatalf("Add of a held key changed the store: Len %d→%d, gen %d→%d, total %d→%d, same record %v",
			n, m.Len(), g2, m.Generation(1), total, m.GenerationTotal(), m.Latest(1) == held)
	}
	if !m.AddUnique(rec(1, 2)) {
		t.Fatal("unique AddUnique must insert")
	}
	if m.Generation(1) == g2 {
		t.Fatal("generation must move on AddUnique insert")
	}
	before := m.GenerationTotal()
	m.Add(rec(7, 0))
	if m.GenerationTotal() == before {
		t.Fatal("GenerationTotal must move on any write")
	}
}

// BenchmarkStoreAddQuery is the mixed ingest/read workload BENCH.txt
// anchors: 1024 time-ordered adds across 16 pumps interleaved
// with 1024 whole-series queries. Sequential so the number is
// deterministic on any core count; the sharded win on multicore is on
// top of this.
func BenchmarkStoreAddQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	recs := make([]*Record, 1024)
	for i := range recs {
		raw := make([]int16, 64)
		for j := range raw {
			raw[j] = int16(rng.Intn(100))
		}
		recs[i] = &Record{
			PumpID:       i % 16,
			ServiceDays:  float64(i) / 7,
			SampleRateHz: 4000,
			ScaleG:       0.003,
			Raw:          [3][]int16{raw, raw, raw},
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		m := NewMeasurements()
		for _, r := range recs {
			m.Add(r)
		}
		for i := 0; i < 1024; i++ {
			m.Query(i%16, 0, 1e9)
		}
	}
}
