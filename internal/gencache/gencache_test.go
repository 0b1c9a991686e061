package gencache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetHitMissAndTagFromBuild(t *testing.T) {
	c := New[string, uint64, int](4)
	builds := 0
	get := func(want, builtAt uint64) (int, bool) {
		t.Helper()
		v, hit, err := c.Get("k", want, func() (int, uint64, error) {
			builds++
			return int(builtAt) * 10, builtAt, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, hit
	}
	if v, hit := get(1, 1); hit || v != 10 {
		t.Fatalf("first get: v=%d hit=%v", v, hit)
	}
	if v, hit := get(1, 1); !hit || v != 10 {
		t.Fatalf("same tag: v=%d hit=%v", v, hit)
	}
	// The source moved to 3 while the caller still believed 2: the value
	// is stored under the tag build reports, so want=2 misses again and
	// want=3 hits.
	if _, hit := get(2, 3); hit {
		t.Fatal("moved tag served as a hit")
	}
	if v, hit := get(3, 3); !hit || v != 30 {
		t.Fatalf("tag reported by build not honoured: v=%d hit=%v", v, hit)
	}
	if _, hit := get(2, 2); hit {
		t.Fatal("stale want hit a newer entry")
	}
	if builds != 3 {
		t.Fatalf("builds = %d, want 3", builds)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New[int, uint64, string](4)
	boom := errors.New("boom")
	if _, hit, err := c.Get(1, 1, func() (string, uint64, error) { return "x", 1, boom }); !errors.Is(err, boom) || hit {
		t.Fatalf("err = %v hit = %v", err, hit)
	}
	v, hit, err := c.Get(1, 1, func() (string, uint64, error) { return "ok", 1, nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("after a failed build: v=%q hit=%v err=%v", v, hit, err)
	}
}

func TestCapEvicts(t *testing.T) {
	const limit = 8
	c := New[int, uint64, int](limit)
	for k := 0; k < 100; k++ {
		v, _, _ := c.Get(k, 1, func() (int, uint64, error) { return k, 1, nil })
		if v != k {
			t.Fatalf("key %d served %d", k, v)
		}
		if c.Len() > limit {
			t.Fatalf("Len = %d after %d keys, cap %d", c.Len(), k+1, limit)
		}
	}
	if c.Len() != limit {
		t.Fatalf("Len = %d, want %d", c.Len(), limit)
	}
}

// TestSlowBuildDoesNotBlockOtherKeys is the faults-handler defect in
// miniature: key A's build is stuck, key B must still be served.
func TestSlowBuildDoesNotBlockOtherKeys(t *testing.T) {
	c := New[string, uint64, int](4)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.Get("A", 1, func() (int, uint64, error) {
			close(started)
			<-release
			return 1, 1, nil
		})
	}()
	<-started
	got := make(chan int, 1)
	go func() {
		v, _, _ := c.Get("B", 1, func() (int, uint64, error) { return 2, 1, nil })
		got <- v
	}()
	select {
	case v := <-got:
		if v != 2 {
			t.Fatalf("B = %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get(B) blocked behind Get(A)'s build")
	}
	close(release)
	<-done
}

// TestSingleFlightPerKeyAndTag hammers M keys from N goroutines while
// the tags advance in rounds: within a round (tag holding still) each
// key is built exactly once however many goroutines ask.
func TestSingleFlightPerKeyAndTag(t *testing.T) {
	const (
		goroutines = 16
		keys       = 8
		rounds     = 20
	)
	c := New[int, uint64, uint64](keys)
	var builds [keys][rounds + 1]atomic.Int32
	for round := uint64(1); round <= rounds; round++ {
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				defer wg.Done()
				for i := 0; i < keys; i++ {
					k := (i + g) % keys
					v, _, err := c.Get(k, round, func() (uint64, uint64, error) {
						builds[k][round].Add(1)
						return round, round, nil
					})
					if err != nil || v != round {
						t.Errorf("key %d round %d: v=%d err=%v", k, round, v, err)
					}
				}
			}()
		}
		wg.Wait()
		for k := 0; k < keys; k++ {
			if n := builds[k][round].Load(); n != 1 {
				t.Fatalf("key %d tag %d built %d times, want 1", k, round, n)
			}
		}
	}
}
