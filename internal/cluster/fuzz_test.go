package cluster

import (
	"strings"
	"testing"
)

// parseMembers turns a fuzzer-supplied comma-separated name list into
// a bounded, deduplicated membership set.
func parseMembers(s string) []string {
	var names []string
	seen := make(map[string]struct{})
	for _, raw := range strings.Split(s, ",") {
		name := strings.TrimSpace(raw)
		if name == "" || len(name) > 24 {
			continue
		}
		if _, dup := seen[name]; dup {
			continue
		}
		seen[name] = struct{}{}
		names = append(names, name)
		if len(names) == 32 {
			break
		}
	}
	return names
}

// FuzzRingRoute checks the routing invariants for arbitrary keys and
// membership sets:
//
//  1. placement is deterministic — two rings built from the same set
//     in different orders route every key identically;
//  2. routing is stable under node re-add — remove + re-add restores
//     the exact prior owner;
//  3. a dead node is never returned — after killing any subset of the
//     membership, the owner is always one of the survivors (or ""
//     only when nobody survives).
func FuzzRingRoute(f *testing.F) {
	f.Add(int64(0), "n1,n2,n3", uint64(0))
	f.Add(int64(7), "n1,n2,n3,n4,n5", uint64(1))
	f.Add(int64(-3), "a,b", uint64(3))
	f.Add(int64(1<<40), "alpha,beta,gamma,delta", uint64(0b1010))
	f.Add(int64(48), "solo", uint64(1))
	f.Add(int64(12), " sp ace ,,dup,dup,x", uint64(0))
	f.Add(int64(99), "", uint64(0xFFFFFFFFFFFFFFFF))

	f.Fuzz(func(t *testing.T, key int64, memberList string, killMask uint64) {
		names := parseMembers(memberList)
		pump := int(key)

		// (1) Determinism: forward and reverse insertion orders agree.
		fwd := NewRing(16)
		for _, n := range names {
			fwd.Add(n)
		}
		rev := NewRing(16)
		for i := len(names) - 1; i >= 0; i-- {
			rev.Add(names[i])
		}
		owner := fwd.Route(pump)
		if got := rev.Route(pump); got != owner {
			t.Fatalf("order-dependent routing: %q vs %q (members %q)", owner, got, names)
		}
		if len(names) == 0 {
			if owner != "" {
				t.Fatalf("empty ring routed key %d to %q", pump, owner)
			}
			return
		}
		if owner == "" {
			t.Fatalf("non-empty ring (%d members) routed key %d to nobody", len(names), pump)
		}

		// (2) Stability under re-add.
		fwd.Remove(owner)
		fwd.Add(owner)
		if got := fwd.Route(pump); got != owner {
			t.Fatalf("owner changed across remove+re-add: %q -> %q", owner, got)
		}

		// (3) Dead nodes are never routed to.
		dead := make(map[string]struct{})
		for i, n := range names {
			if i < 64 && killMask&(1<<uint(i)) != 0 {
				fwd.Remove(n)
				dead[n] = struct{}{}
			}
		}
		got := fwd.Route(pump)
		if _, isDead := dead[got]; isDead {
			t.Fatalf("routed key %d to dead node %q", pump, got)
		}
		if len(dead) == len(names) {
			if got != "" {
				t.Fatalf("all nodes dead, still routed to %q", got)
			}
			return
		}
		if got == "" {
			t.Fatalf("survivors exist, routed key %d to nobody", pump)
		}
	})
}
