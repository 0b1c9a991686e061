package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRingDeterministicPlacement: the same membership set must route
// identically no matter the order nodes joined or left — the property
// every router replica and every failover decision relies on.
func TestRingDeterministicPlacement(t *testing.T) {
	a := NewRing(32)
	for _, n := range []string{"n1", "n2", "n3", "n4"} {
		a.Add(n)
	}

	b := NewRing(32)
	for _, n := range []string{"n4", "n2", "n1", "n3", "n5"} {
		b.Add(n)
	}
	b.Remove("n5")

	for pump := 0; pump < 4096; pump++ {
		if got, want := b.Route(pump), a.Route(pump); got != want {
			t.Fatalf("pump %d: order-dependent routing: %q vs %q", pump, got, want)
		}
	}
}

// TestRingRouteStableUnderReAdd: remove + re-add restores the exact
// prior routing (virtual points land back where they were).
func TestRingRouteStableUnderReAdd(t *testing.T) {
	r := NewRing(64)
	for _, n := range []string{"n1", "n2", "n3"} {
		r.Add(n)
	}
	before := make(map[int]string)
	for pump := 0; pump < 2048; pump++ {
		before[pump] = r.Route(pump)
	}
	r.Remove("n2")
	r.Add("n2")
	for pump := 0; pump < 2048; pump++ {
		if got := r.Route(pump); got != before[pump] {
			t.Fatalf("pump %d moved across remove+re-add: %q -> %q", pump, before[pump], got)
		}
	}
}

// TestRingBalance: with virtual nodes, no member should own a wildly
// disproportionate share of a uniform key space. The bound is loose
// (3x fair share) — this is a sanity check, not a chi-squared test.
func TestRingBalance(t *testing.T) {
	r := NewRing(DefaultVirtualNodes)
	nodes := []string{"n1", "n2", "n3", "n4", "n5"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := make(map[string]int)
	const keys = 20000
	for pump := 0; pump < keys; pump++ {
		counts[r.Route(pump)]++
	}
	fair := keys / len(nodes)
	for _, n := range nodes {
		if counts[n] == 0 {
			t.Fatalf("node %s owns no keys", n)
		}
		if counts[n] > 3*fair {
			t.Fatalf("node %s owns %d of %d keys (fair share %d): ring badly unbalanced",
				n, counts[n], keys, fair)
		}
	}
}

// TestRingMembershipChurnMinimalMovement is the churn proof the issue
// asks for: across a randomized sequence of joins and leaves, the only
// keys that change owner are the ones the change forces —
//
//   - on leave, exactly the departed node's keys move (every key owned
//     by a surviving node stays put);
//   - on join, keys only ever move TO the new node (no key shuffles
//     between two pre-existing nodes), and the moved fraction stays
//     near the fair share.
func TestRingMembershipChurnMinimalMovement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewRing(DefaultVirtualNodes)
	live := []string{}
	next := 0
	addNode := func() string {
		next++
		name := fmt.Sprintf("n%d", next)
		r.Add(name)
		live = append(live, name)
		return name
	}
	for i := 0; i < 4; i++ {
		addNode()
	}

	const keys = 5000
	owner := make([]string, keys)
	snap := func() {
		for k := range owner {
			owner[k] = r.Route(k)
		}
	}
	snap()

	for step := 0; step < 40; step++ {
		join := rng.Intn(2) == 0 || len(live) <= 2
		if join {
			name := addNode()
			moved := 0
			for k := 0; k < keys; k++ {
				got := r.Route(k)
				if got != owner[k] {
					if got != name {
						t.Fatalf("step %d join %s: pump %d moved %q -> %q, not to the joiner",
							step, name, k, owner[k], got)
					}
					moved++
				}
			}
			// The joiner should take roughly 1/n of the space; allow a wide
			// margin (3x) for hash variance, and require it took something.
			fair := keys / len(live)
			if moved == 0 {
				t.Fatalf("step %d join %s: no keys moved to the joiner", step, name)
			}
			if moved > 3*fair {
				t.Fatalf("step %d join %s: %d keys moved (fair %d): far more than the minimal range",
					step, name, moved, fair)
			}
		} else {
			i := rng.Intn(len(live))
			name := live[i]
			live = append(live[:i], live[i+1:]...)
			r.Remove(name)
			for k := 0; k < keys; k++ {
				got := r.Route(k)
				if owner[k] == name {
					if got == name {
						t.Fatalf("step %d leave %s: pump %d still routed to the dead node", step, name, k)
					}
					continue // forced move: fine, any survivor may inherit
				}
				if got != owner[k] {
					t.Fatalf("step %d leave %s: pump %d moved %q -> %q though its owner survived",
						step, name, k, owner[k], got)
				}
			}
		}
		snap()
	}
}

// TestRingEmptyAndSingle covers the degenerate memberships.
func TestRingEmptyAndSingle(t *testing.T) {
	r := NewRing(8)
	if got := r.Route(5); got != "" {
		t.Fatalf("empty ring routed to %q", got)
	}
	r.Add("solo")
	for pump := 0; pump < 64; pump++ {
		if got := r.Route(pump); got != "solo" {
			t.Fatalf("single-node ring routed pump %d to %q", pump, got)
		}
	}
	r.Remove("solo")
	if got := r.Route(5); got != "" {
		t.Fatalf("emptied ring routed to %q", got)
	}
}

// TestRingRouteNoAlloc: owner lookup is per-request work on the
// router's hot path — the pump key is composed on the stack and the
// lookup must not allocate.
func TestRingRouteNoAlloc(t *testing.T) {
	ring := NewRing(0)
	for i := 0; i < 5; i++ {
		ring.Add(fmt.Sprintf("n%d", i+1))
	}
	pump := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if ring.Route(pump) == "" {
			t.Fatal("no owner")
		}
		pump++
	})
	if allocs != 0 {
		t.Fatalf("Route allocates %.1f times per call, want 0", allocs)
	}
}
