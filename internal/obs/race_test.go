package obs

import (
	"fmt"
	"io"
	"sync"
	"testing"
)

// TestRegistryRaceHammer drives every registry operation from many
// goroutines at once — lookups of hot and cold series, counter/gauge/
// histogram updates, snapshots, and full expositions — so `go test
// -race` proves the substrate is race-clean before it is threaded
// through the concurrent ingestion path.
func TestRegistryRaceHammer(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const rounds = 400
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			// Each worker hammers one private series and several shared
			// ones, forcing both create and fast-path lookups.
			private := r.Counter("hammer_private_total", "worker", fmt.Sprint(w))
			for i := 0; i < rounds; i++ {
				private.Inc()
				r.Counter("hammer_shared_total").Inc()
				r.Counter("hammer_labelled_total", "bucket", fmt.Sprint(i%5)).Add(2)
				r.Gauge("hammer_gauge").Add(0.5)
				r.Gauge("hammer_gauge").Set(float64(i))
				r.Histogram("hammer_seconds", nil).Observe(float64(i) * 1e-4)
				if i%50 == 0 {
					_ = r.Snapshot()
					_ = r.Totals()
					_ = r.WritePrometheus(io.Discard)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hammer_shared_total").Value(); got != workers*rounds {
		t.Fatalf("shared counter = %d, want %d (lost updates)", got, workers*rounds)
	}
	var perWorker uint64
	for w := 0; w < workers; w++ {
		perWorker += r.Counter("hammer_private_total", "worker", fmt.Sprint(w)).Value()
	}
	if perWorker != workers*rounds {
		t.Fatalf("private counters sum %d, want %d", perWorker, workers*rounds)
	}
	if got := r.Histogram("hammer_seconds", nil).Count(); got != workers*rounds {
		t.Fatalf("histogram count = %d, want %d", got, workers*rounds)
	}
}
