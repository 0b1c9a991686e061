// Package cluster scales the durable single-node data plane out to N
// cooperating nodes: a consistent-hash ring routes each pump to its
// owning node, every node synchronously replicates its WAL frames to a
// follower-side segment mirror, and on node death the follower's
// mirror is replayed and redistributed so no acknowledged write is
// lost cluster-wide. The package is deliberately in-process — nodes
// are goroutine-cheap value of the same durable store `vibed` runs —
// which keeps the chaos harness deterministic while exercising the
// exact routing, shipping, and promotion logic a networked deployment
// would run.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// DefaultVirtualNodes is how many ring points each node contributes
// when the caller does not say otherwise. More points smooth the load
// split and shrink the key range that moves per membership change, at
// the cost of a larger (still tiny) sorted array.
const DefaultVirtualNodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. Placement is a
// pure function of the membership set: the same set of node names
// always produces byte-identical point placement regardless of the
// order nodes joined or left, so every router replica — and every
// failover decision — computes the same owner for a key without any
// coordination. That purity is also what makes rebalance deterministic
// and minimal: adding or removing one node only reassigns the arcs
// that node's virtual points cover.
//
// Ring is safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	nodes  map[string]struct{}
	points []ringPoint // sorted by hash; ties broken by node name
}

// NewRing builds an empty ring with vnodes virtual points per node
// (<= 0 selects DefaultVirtualNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]struct{})}
}

// FNV-1a parameters (hash/fnv's, inlined so the per-request routing
// path hashes without a hasher allocation).
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// mix64 is a splitmix64 finalizer. It matters: raw FNV-1a barely
// avalanches a trailing byte into the high bits that decide ring
// position, so sequential pump ids ("pump/41", "pump/42", ...) would
// collapse onto a handful of circle positions and starve new members.
// Fixed arithmetic — stable across processes and platforms, which the
// deterministic-rebalance contract depends on.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash64 is the ring's hash: FNV-1a over the key bytes, finalized with
// mix64.
func hash64(key string) uint64 {
	x := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		x ^= uint64(key[i])
		x *= fnvPrime64
	}
	return mix64(x)
}

// pointHash places virtual point i of a node on the circle.
func pointHash(node string, i int) uint64 {
	return hash64(fmt.Sprintf("%s#%d", node, i))
}

// keyHash places a pump key on the circle. Pump ids hash through their
// decimal form ("pump/41") so the ring and external tooling agree
// trivially; the key is composed on the stack — routing is per-request
// work and must not allocate.
func keyHash(pump int) uint64 {
	var buf [24]byte
	b := append(buf[:0], "pump/"...)
	b = strconv.AppendInt(b, int64(pump), 10)
	x := uint64(fnvOffset64)
	for _, c := range b {
		x ^= uint64(c)
		x *= fnvPrime64
	}
	return mix64(x)
}

// Add inserts a node's virtual points. Re-adding a present node is a
// no-op, which is what makes routing stable under remove + re-add: the
// points land back exactly where they were.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: pointHash(node, i), node: node})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
}

// Remove deletes a node's virtual points. Keys on the removed arcs
// fall through to each arc's successor; every other key keeps its
// owner — the minimal-movement property the churn test pins.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Nodes returns the membership, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Route returns the node owning pump. The empty string means the ring
// is empty.
func (r *Ring) Route(pump int) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ownerLocked(keyHash(pump))
}

// RouteKey routes an arbitrary string key — the same circle, for
// callers that shard something other than pumps.
func (r *Ring) RouteKey(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ownerLocked(hash64(key))
}

// ownerLocked finds the first point at or clockwise of h.
func (r *Ring) ownerLocked(h uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Successors returns up to n distinct nodes starting at pump's owner
// and walking clockwise — owner first, then the nodes that would
// inherit the key as owners die. Fewer than n are returned when the
// ring has fewer members.
func (r *Ring) Successors(pump int, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := keyHash(pump)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for scanned := 0; scanned < len(r.points) && len(out) < n; scanned++ {
		p := r.points[(i+scanned)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}
