package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"vibepm/internal/node"
	"vibepm/internal/store"
)

// Options parameterizes a cluster.
type Options struct {
	// Node is the template every member is opened from. The cluster
	// owns Dir, the WAL's OnFrame/OnSeal (they carry replication) and
	// WrapFile; members take no corpus and no tiering. Its
	// Durable.ReplayWorkers also bounds the dead-primary mirror replay
	// at failover.
	Node node.Options
	// WrapFileFor, when non-nil, supplies a per-node segment-file
	// interposer — the chaos harness uses it to arm a crash budget on
	// exactly one victim node.
	WrapFileFor func(node string) func(path string, f *os.File) store.SegmentFile
}

// Node is one cluster member: a full node plus the replication sink it
// ships WAL frames to. The sink lives on the node's follower.
type Node struct {
	*node.Node
	Name string
	dir  string

	// sink is the follower-side mirror this node's OnFrame hook ships
	// into; swapped atomically at retarget, nil when the node has no
	// live follower.
	sink atomic.Pointer[store.SegmentMirror]
	// sinkHost names the node hosting the current sink ("" when nil).
	sinkHost string

	// hosted maps source node name -> the mirror of that node's WAL
	// stored in this node's directory. Guarded by the cluster mutex.
	hosted map[string]*store.SegmentMirror

	alive bool
}

// Cluster is N in-process nodes behind one consistent-hash ring.
// Membership changes (Kill, failover) hold the write lock; ingest and
// status hold the read lock, so routing decisions never interleave
// with a promotion half-way through.
type Cluster struct {
	mu    sync.RWMutex
	ring  *Ring
	nodes map[string]*Node
	order []string // boot order; fixes the follower chain
	opts  Options
}

// ErrNoNode is returned when routing finds no live owner for a key.
var ErrNoNode = errors.New("cluster: no live node for key")

// Open boots a cluster of len(names) nodes rooted at dir, each opened
// by node.Open in dir/<name>, recovery and warm-up included: existing
// node directories replay their snapshot+WAL exactly as a single vibed
// would. With two or more nodes, node i synchronously replicates every
// WAL frame to a mirror hosted on node i+1 (mod N, in boot order) —
// an append is acked only after its frame reached both the local
// segment and the follower's mirror file.
func Open(dir string, names []string, opts Options) (*Cluster, error) {
	if len(names) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	if w := opts.Node.Durable.WAL; w.OnFrame != nil || w.OnSeal != nil {
		return nil, errors.New("cluster: WAL OnFrame/OnSeal are cluster-owned")
	}
	// Union, failover and the retarget bootstrap read a member's hot
	// store only, so a tiered member would silently lose its cold
	// records; and one corpus cannot be shared by N stores.
	if t := opts.Node; t.Measurements != nil || t.Labels != nil || t.Durable.Tiered != nil {
		return nil, errors.New("cluster: members take no corpus and no tiering")
	}
	seen := make(map[string]struct{}, len(names))
	for _, name := range names {
		if name == "" {
			return nil, errors.New("cluster: empty node name")
		}
		if _, dup := seen[name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node name %q", name)
		}
		seen[name] = struct{}{}
	}
	c := &Cluster{
		ring:  NewRing(DefaultVirtualNodes),
		nodes: make(map[string]*Node, len(names)),
		order: append([]string(nil), names...),
		opts:  opts,
	}
	// Create the follower mirrors first: node i's durable store cannot
	// open until the mirror it ships into exists.
	for _, name := range names {
		c.nodes[name] = &Node{
			Name:   name,
			dir:    filepath.Join(dir, name),
			hosted: make(map[string]*store.SegmentMirror),
			alive:  true,
		}
		c.ring.Add(name)
	}
	if len(names) > 1 {
		for i, name := range names {
			follower := c.nodes[names[(i+1)%len(names)]]
			m, err := store.NewSegmentMirror(mirrorDir(follower.dir, name))
			if err != nil {
				return nil, err
			}
			follower.hosted[name] = m
			c.nodes[name].sink.Store(m)
			c.nodes[name].sinkHost = follower.Name
		}
	}
	for _, name := range names {
		n := c.nodes[name]
		nopts := opts.Node
		nopts.Dir = n.dir
		if nopts.Logger != nil {
			nopts.Logger = nopts.Logger.With("node", name)
		}
		wopts := &nopts.Durable.WAL
		if opts.WrapFileFor != nil {
			wopts.WrapFile = opts.WrapFileFor(name)
		}
		wopts.OnFrame = func(seg int, frame []byte) error {
			if s := n.sink.Load(); s != nil {
				return s.AppendFrame(seg, frame)
			}
			return nil
		}
		wopts.OnSeal = func(seg int) {
			if s := n.sink.Load(); s != nil {
				// Seal errors only defer durability of the mirror's sealed
				// segment to its next append/close sync; the primary's own
				// seal already succeeded, so the ack contract stands.
				_ = s.Seal(seg)
			}
		}
		opened, err := node.Open(nopts)
		if err != nil {
			c.abortAll()
			return nil, fmt.Errorf("cluster: open node %s: %w", name, err)
		}
		n.Node = opened
	}
	metLiveNodes.Set(float64(len(names)))
	return c, nil
}

// MemberNames returns the conventional member names n1..nN.
func MemberNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
	}
	return names
}

// mirrorDir is where a host node keeps its mirror of src's WAL.
func mirrorDir(hostDir, src string) string {
	return filepath.Join(hostDir, "mirrors", src)
}

// Node returns a member by name (nil if unknown). The member set is
// fixed at Open, so the lookup takes no lock.
func (c *Cluster) Node(name string) *Node { return c.nodes[name] }

// Ingest routes rec to its owning node and ingests it there — durable
// append, then fold — returning the owner's name and whether the
// record landed (false = idempotent duplicate). The nil-error contract
// is the single-node one, now cluster-wide: the record's WAL frame
// reached the owner's segment file and its follower's mirror before
// the ack.
func (c *Cluster) Ingest(rec *store.Record) (string, bool, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	owner := c.ring.Route(rec.PumpID)
	n := c.nodes[owner]
	if n == nil || !n.alive {
		return owner, false, ErrNoNode
	}
	stored, err := n.Ingest(rec)
	return owner, stored, err
}

// liveNeighbourLocked returns the first live node strictly after
// (dir +1) or before (dir -1) name in the boot-order chain — a node's
// follower, or the node whose sink it hosts. "" when none.
func (c *Cluster) liveNeighbourLocked(name string, dir int) string {
	idx := slices.Index(c.order, name)
	if idx < 0 {
		return ""
	}
	n := len(c.order)
	for step := 1; step < n; step++ {
		cand := c.order[((idx+dir*step)%n+n)%n]
		if c.nodes[cand].alive {
			return cand
		}
	}
	return ""
}

// FailoverStats reports one node death + promotion.
type FailoverStats struct {
	// Node is the member that died.
	Node string
	// Follower hosted the dead node's mirror and drove the promotion
	// ("" when the dead node had no live follower — last node standing
	// dies dark).
	Follower string
	// MirrorRecords is how many records replaying the mirror yielded.
	MirrorRecords int
	// Redistributed is how many of those landed on their new owners
	// (the rest were idempotent duplicates of records the new owners
	// already held, e.g. after a re-ingest or double failover).
	Redistributed int
	// MirrorTruncated reports whether the mirror ended in a torn frame
	// (the un-acked tail of the append the primary died inside).
	MirrorTruncated bool
	// Retargeted names the node whose replication sink was re-homed
	// because it pointed at the dead node ("" when none).
	Retargeted string
	// BootstrapRecords is how many records were seeded into the
	// retargeted node's fresh mirror.
	BootstrapRecords int
}

// Kill marks a node dead, removes it from the ring, and runs failover:
// the dead node's follower replays its hosted mirror and redistributes
// every record to its post-removal owner via the normal ingest path
// (re-logged, re-replicated, folded), and any node whose sink lived on
// the corpse is retargeted to a fresh mirror on its next live follower
// — seeded with the node's full store so the new follower could itself
// drive a future promotion. Kill on a dead or unknown node is an
// error; killing the last live node only marks it dead.
func (c *Cluster) Kill(name string) (FailoverStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	stats := FailoverStats{Node: name}
	n := c.nodes[name]
	if n == nil {
		return stats, fmt.Errorf("cluster: unknown node %q", name)
	}
	if !n.alive {
		return stats, fmt.Errorf("cluster: node %q already dead", name)
	}
	n.alive = false
	n.Abort()
	n.sink.Store(nil)
	n.sinkHost = ""
	c.ring.Remove(name)
	metLiveNodes.Set(float64(len(c.ring.Nodes()))) // the ring holds exactly the live members
	metFailovers.Inc()

	follower := c.liveNeighbourLocked(name, +1)
	stats.Follower = follower
	if follower == "" {
		return stats, nil
	}
	fn := c.nodes[follower]

	// Promote: replay the mirror of the dead node and push every record
	// through post-removal routing. The parallel replayer applies the
	// same CRC-authenticate-or-truncate rules as node recovery (frame
	// verification fans across workers; apply stays in frame order), so
	// the mirror's acked prefix — which synchronous shipping guarantees
	// is complete — is exactly what redistributes.
	if m := fn.hosted[name]; m != nil {
		if err := m.Close(); err != nil {
			return stats, fmt.Errorf("cluster: close mirror of %s: %w", name, err)
		}
		delete(fn.hosted, name)
		rstats, err := store.ReplayWALWorkers(m.Dir(), func(rec *store.Record) error {
			stats.MirrorRecords++
			owner := c.ring.Route(rec.PumpID)
			on := c.nodes[owner]
			if on == nil || !on.alive {
				return fmt.Errorf("cluster: no live owner for pump %d", rec.PumpID)
			}
			stored, err := on.Ingest(rec)
			if err != nil {
				return err
			}
			if stored {
				stats.Redistributed++
				metFailoverRecords.Inc()
			}
			return nil
		}, c.opts.Node.Durable.ReplayWorkers)
		if err != nil {
			return stats, fmt.Errorf("cluster: promote %s from %s: %w", name, follower, err)
		}
		stats.MirrorTruncated = rstats.Truncated()
	}

	// Retarget: the dead node hosted its predecessor's sink; give that
	// predecessor a fresh mirror on its next live follower, seeded with
	// its current store so the chain's cover is complete again.
	pred := c.liveNeighbourLocked(name, -1)
	if pred != "" && c.nodes[pred].sinkHost == name {
		pn := c.nodes[pred]
		pn.sink.Store(nil)
		pn.sinkHost = ""
		next := c.liveNeighbourLocked(pred, +1)
		if next != "" && next != pred {
			nn := c.nodes[next]
			m, err := store.NewSegmentMirror(mirrorDir(nn.dir, pred))
			if err != nil {
				return stats, err
			}
			// Seed in one batched pass: collect the predecessor's store
			// and ship it through AppendRecords — byte-identical frames to
			// the old per-record loop, at ~1 MiB per syscall instead of
			// one Write (and one mirror lock round-trip) per record.
			seg := pn.Durable.WAL().Segment()
			appended, err := m.AppendRecords(seg, allRecords(pn.Store))
			stats.BootstrapRecords += appended
			if err != nil {
				return stats, fmt.Errorf("cluster: bootstrap %s -> %s: %w", pred, next, err)
			}
			if err := m.Sync(); err != nil {
				return stats, err
			}
			nn.hosted[pred] = m
			pn.sink.Store(m)
			pn.sinkHost = next
			stats.Retargeted = pred
		}
	}
	return stats, nil
}

// allRecords flattens a store into one slice, pump by pump.
func allRecords(m *store.Measurements) []*store.Record {
	var recs []*store.Record
	for _, id := range m.Pumps() {
		recs = append(recs, m.All(id)...)
	}
	return recs
}

// Union merges every live node's store into one canonical view — the
// cluster-wide record set the chaos harness compares against the acked
// stream. Records are AddUnique'd, so a record present on two nodes
// (mid-redistribution duplicates) counts once.
func (c *Cluster) Union() *store.Measurements {
	c.mu.RLock()
	defer c.mu.RUnlock()
	u := store.NewMeasurements()
	for _, name := range c.order {
		n := c.nodes[name]
		if n == nil || !n.alive {
			continue
		}
		for _, rec := range allRecords(n.Store) {
			u.AddUnique(rec)
		}
	}
	return u
}

// NodeStatus is one member's row in a cluster status report.
type NodeStatus struct {
	Name          string   `json:"name"`
	Alive         bool     `json:"alive"`
	Records       int      `json:"records"`
	WALSegment    int      `json:"wal_segment"`
	ShipsTo       string   `json:"ships_to,omitempty"`
	FramesShipped uint64   `json:"frames_shipped"`
	BytesShipped  uint64   `json:"bytes_shipped"`
	MirrorsHosted []string `json:"mirrors_hosted,omitempty"`
}

// Status is the cluster-wide report GET /api/v1/cluster/status serves.
type Status struct {
	Nodes     []NodeStatus `json:"nodes"`
	RingNodes []string     `json:"ring_nodes"`
	Live      int          `json:"live"`
}

// Status snapshots the cluster.
func (c *Cluster) Status() Status {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := Status{RingNodes: c.ring.Nodes()}
	for _, name := range c.order {
		n := c.nodes[name]
		ns := NodeStatus{Name: name, Alive: n.alive}
		if n.alive {
			st.Live++
			ns.Records = n.Store.Len()
			ns.WALSegment = n.Durable.WAL().Segment()
			ns.ShipsTo = n.sinkHost
			if s := n.sink.Load(); s != nil {
				ns.FramesShipped = s.FramesShipped()
				ns.BytesShipped = s.BytesShipped()
			}
			for src := range n.hosted {
				ns.MirrorsHosted = append(ns.MirrorsHosted, src)
			}
			sort.Strings(ns.MirrorsHosted)
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

// Close shuts every live node down cleanly (final checkpoint + WAL
// close), then closes the mirrors they host.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, name := range c.order {
		n := c.nodes[name]
		if n == nil || !n.alive {
			continue
		}
		n.alive = false
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, name := range c.order {
		for _, m := range c.nodes[name].hosted {
			if err := m.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	metLiveNodes.Set(0)
	return first
}

// abortAll tears down a half-open cluster without checkpoints.
func (c *Cluster) abortAll() {
	for _, n := range c.nodes {
		if n.Node != nil {
			n.Abort()
		}
		for _, m := range n.hosted {
			m.Close()
		}
	}
}
