package cluster

import (
	"math/rand"
	"testing"

	"vibepm/internal/node"
	"vibepm/internal/store"
)

// BenchmarkRingRoute is the consistent-hash owner lookup every routed
// request pays.
func BenchmarkRingRoute(b *testing.B) {
	ring := NewRing(DefaultVirtualNodes)
	for _, name := range []string{"n1", "n2", "n3", "n4", "n5"} {
		ring.Add(name)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if ring.Route(i%4096) == "" {
			b.Fatal("route returned no owner")
		}
		i++
	}
}

// BenchmarkClusterIngest is the full clustered ingest of a 16-sample
// record: route + WAL frame + synchronous mirror ship + memory apply +
// live fold + fault classify (members are full nodes). The ship is
// store's BenchmarkSegmentShip; the rest is what a single node's
// ingest seam pays too.
func BenchmarkClusterIngest(b *testing.B) {
	c, err := Open(b.TempDir(), MemberNames(3), Options{Node: node.Options{
		Faults:  true,
		Durable: store.DurableOptions{WAL: store.WALOptions{Policy: store.SyncNever}},
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(7))
	day := 0.0
	b.ReportAllocs()
	for b.Loop() {
		day += 0.25
		raw := make([]int16, 16)
		for j := range raw {
			raw[j] = int16(rng.Intn(4096) - 2048)
		}
		_, stored, err := c.Ingest(&store.Record{
			PumpID:       int(day) % 64,
			ServiceDays:  day,
			SampleRateHz: 4000,
			ScaleG:       0.003,
			Raw:          [3][]int16{raw, raw, raw},
		})
		if err != nil || !stored {
			b.Fatalf("stored=%v err=%v", stored, err)
		}
	}
}
