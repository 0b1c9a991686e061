package main

import (
	"math/rand"
	"testing"

	"vibepm/internal/cluster"
	"vibepm/internal/node"
	"vibepm/internal/store"
)

// benchSuitePR7 assembles the clustering cases: the consistent-hash
// owner lookup every routed request pays, the full clustered ingest
// (route + WAL frame + synchronous mirror ship + memory apply + live
// fold + fault classify — members are full nodes), and the
// follower-side segment shipping in isolation. SegmentShip is what the
// follower guarantee costs per record; the rest of ClusterIngest is
// what a single node's ingest seam pays too.
func benchSuitePR7() []benchCase {
	mkRec := func(rng *rand.Rand, pump int, day float64) *store.Record {
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
	return []benchCase{
		{"RingRoute", func(b *testing.B) {
			ring := cluster.NewRing(cluster.DefaultVirtualNodes)
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
		}},
		{"ClusterIngest", func(b *testing.B) {
			c, err := cluster.Open(b.TempDir(), cluster.MemberNames(3), cluster.Options{Node: node.Options{
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
				_, stored, err := c.Ingest(mkRec(rng, int(day)%64, day))
				if err != nil || !stored {
					b.Fatalf("stored=%v err=%v", stored, err)
				}
			}
		}},
		{"SegmentShip", func(b *testing.B) {
			m, err := store.NewSegmentMirror(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			rec := mkRec(rand.New(rand.NewSource(9)), 3, 1.5)
			b.ReportAllocs()
			for b.Loop() {
				if err := m.AppendRecord(1, rec); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}
