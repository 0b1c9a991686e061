package cluster

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"vibepm/internal/chaos"
	"vibepm/internal/node"
	"vibepm/internal/store"
)

// memberWAL is the cluster options of the tests: default members over
// the given WAL configuration.
func memberWAL(w store.WALOptions) Options {
	return Options{Node: node.Options{Durable: store.DurableOptions{WAL: w}}}
}

// ingestN pushes n seeded records through the cluster, returning the
// acked records. off shifts the generated key range so successive
// calls on one cluster do not collide (record keys are a function of
// the index, not the seed).
func ingestN(t *testing.T, c *Cluster, seed int64, off, n int) []*store.Record {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	acked := make([]*store.Record, 0, n)
	for i := 0; i < n; i++ {
		rec := chaos.TrialRecord(rng, off+i)
		_, stored, err := c.Ingest(rec)
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if !stored {
			t.Fatalf("ingest %d: judged duplicate", i)
		}
		acked = append(acked, rec)
	}
	return acked
}

// TestClusterIngestRoutesByRing: every record lands on the node the
// ring names, and nowhere else.
func TestClusterIngestRoutesByRing(t *testing.T) {
	c, err := Open(t.TempDir(), MemberNames(3), memberWAL(store.WALOptions{Policy: store.SyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.abortAll()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 120; i++ {
		rec := chaos.TrialRecord(rng, i)
		owner, _, err := c.Ingest(rec)
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if want := c.ring.Route(rec.PumpID); owner != want {
			t.Fatalf("record %d: acked by %q, ring owner %q", i, owner, want)
		}
		for _, name := range MemberNames(3) {
			n := c.Node(name)
			got := len(n.Store.Query(rec.PumpID, rec.ServiceDays, rec.ServiceDays))
			if name == owner && got != 1 {
				t.Fatalf("record %d: owner %s holds %d copies", i, owner, got)
			}
			if name != owner && got != 0 {
				t.Fatalf("record %d: non-owner %s holds a copy", i, name)
			}
		}
	}
}

// TestClusterSynchronousReplication: an acked ingest's frame is
// already in the follower's mirror — replaying the mirror directory
// alone reconstructs every record the owner acked.
func TestClusterSynchronousReplication(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, MemberNames(2), memberWAL(store.WALOptions{Policy: store.SyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.abortAll()
	acked := ingestN(t, c, 2, 0, 80)

	for _, name := range MemberNames(2) {
		n := c.Node(name)
		ownRecs := make([]*store.Record, 0)
		for _, rec := range acked {
			if c.ring.Route(rec.PumpID) == name {
				ownRecs = append(ownRecs, rec)
			}
		}
		host := c.Node(n.sinkHost)
		mdir := mirrorDir(host.dir, name)
		if err := n.sink.Load().Sync(); err != nil {
			t.Fatal(err)
		}
		got := store.NewMeasurements()
		if _, err := store.ReplayWAL(mdir, func(rec *store.Record) error {
			got.AddUnique(rec)
			return nil
		}); err != nil {
			t.Fatalf("replay mirror of %s: %v", name, err)
		}
		if err := chaos.CheckRecovered(got, ownRecs, ownRecs); err != nil {
			t.Fatalf("mirror of %s vs what it acked: %v", name, err)
		}
	}
}

// TestClusterCleanKillFailover: killing a healthy node loses nothing —
// the follower promotes its mirror and the cluster union still equals
// the full acked stream; records reroute to live owners afterwards.
func TestClusterCleanKillFailover(t *testing.T) {
	c, err := Open(t.TempDir(), MemberNames(3), memberWAL(store.WALOptions{Policy: store.SyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.abortAll()
	acked := ingestN(t, c, 3, 0, 150)

	victim := "n2"
	fo, err := c.Kill(victim)
	if err != nil {
		t.Fatal(err)
	}
	if fo.Follower != "n3" {
		t.Fatalf("follower = %q, want n3 (boot-order chain)", fo.Follower)
	}
	if fo.MirrorRecords == 0 || fo.Redistributed == 0 {
		t.Fatalf("failover moved nothing: %+v", fo)
	}
	if err := chaos.CheckRecovered(c.Union(), acked, acked); err != nil {
		t.Fatalf("after failover: %v", err)
	}
	for pump := 0; pump < 64; pump++ {
		if got := c.ring.Route(pump); got == victim {
			t.Fatalf("pump %d still routed to the corpse", pump)
		}
	}
	// Ingest keeps working, including keys the victim used to own.
	more := ingestN(t, c, 4, 150, 60)
	acked = append(acked, more...)
	if err := chaos.CheckRecovered(c.Union(), acked, acked); err != nil {
		t.Fatalf("after post-failover ingest: %v", err)
	}

	if _, err := c.Kill(victim); err == nil {
		t.Fatal("double kill did not error")
	}
	if _, err := c.Kill("nope"); err == nil {
		t.Fatal("killing an unknown node did not error")
	}
}

// TestClusterRetargetAfterFollowerDeath: when a node's follower dies,
// its sink is re-homed and seeded; killing the node itself afterwards
// must still lose nothing — the fresh mirror carries the full store.
func TestClusterRetargetAfterFollowerDeath(t *testing.T) {
	c, err := Open(t.TempDir(), MemberNames(3), memberWAL(store.WALOptions{Policy: store.SyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.abortAll()
	acked := ingestN(t, c, 5, 0, 120)

	// n1 ships to n2. Kill n2: n1 must retarget to n3 with a bootstrap.
	fo, err := c.Kill("n2")
	if err != nil {
		t.Fatal(err)
	}
	if fo.Retargeted != "n1" {
		t.Fatalf("retargeted = %q, want n1: %+v", fo.Retargeted, fo)
	}
	n1 := c.Node("n1")
	if n1.sinkHost != "n3" {
		t.Fatalf("n1 ships to %q after retarget, want n3", n1.sinkHost)
	}
	if fo.BootstrapRecords != n1.Store.Len() {
		t.Fatalf("bootstrap seeded %d records, n1 holds %d", fo.BootstrapRecords, n1.Store.Len())
	}

	// Now kill n1: only the retargeted mirror on n3 can save its data.
	if _, err := c.Kill("n1"); err != nil {
		t.Fatal(err)
	}
	if err := chaos.CheckRecovered(c.Union(), acked, acked); err != nil {
		t.Fatalf("after double failover: %v", err)
	}
}

// TestClusterLastNodeDiesDark: killing the final member reports no
// follower and the union goes empty — data is gone, and the API says
// so instead of pretending.
func TestClusterLastNodeDiesDark(t *testing.T) {
	c, err := Open(t.TempDir(), MemberNames(2), memberWAL(store.WALOptions{Policy: store.SyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.abortAll()
	ingestN(t, c, 6, 0, 40)
	if _, err := c.Kill("n1"); err != nil {
		t.Fatal(err)
	}
	fo, err := c.Kill("n2")
	if err != nil {
		t.Fatal(err)
	}
	if fo.Follower != "" {
		t.Fatalf("last corpse found a follower: %+v", fo)
	}
	if got := c.Union().Len(); got != 0 {
		t.Fatalf("union of zero live nodes holds %d records", got)
	}
	rec := chaos.TrialRecord(rand.New(rand.NewSource(9)), 0)
	if _, _, err := c.Ingest(rec); !errors.Is(err, ErrNoNode) {
		t.Fatalf("ingest into dead cluster: err=%v, want ErrNoNode", err)
	}
}

// TestClusterReopenRecoversUnion: a cleanly closed cluster reboots
// from disk with identical cluster-wide contents.
func TestClusterReopenRecoversUnion(t *testing.T) {
	dir := t.TempDir()
	names := MemberNames(3)
	c, err := Open(dir, names, memberWAL(store.WALOptions{Policy: store.SyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	acked := ingestN(t, c, 7, 0, 90)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir, names, memberWAL(store.WALOptions{Policy: store.SyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	defer again.abortAll()
	if err := chaos.CheckRecovered(again.Union(), acked, acked); err != nil {
		t.Fatalf("after reopen: %v", err)
	}
}

// TestClusterStatus: the status report names every member, the chain,
// and the shipping counters.
func TestClusterStatus(t *testing.T) {
	c, err := Open(t.TempDir(), MemberNames(3), memberWAL(store.WALOptions{Policy: store.SyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.abortAll()
	ingestN(t, c, 8, 0, 30)
	st := c.Status()
	if st.Live != 3 || len(st.Nodes) != 3 || len(st.RingNodes) != 3 {
		t.Fatalf("status = %+v", st)
	}
	totalRecords, totalShipped := 0, uint64(0)
	for _, ns := range st.Nodes {
		if !ns.Alive {
			t.Fatalf("node %s reported dead", ns.Name)
		}
		if ns.ShipsTo == "" || ns.ShipsTo == ns.Name {
			t.Fatalf("node %s ships to %q", ns.Name, ns.ShipsTo)
		}
		if len(ns.MirrorsHosted) != 1 {
			t.Fatalf("node %s hosts %v", ns.Name, ns.MirrorsHosted)
		}
		totalRecords += ns.Records
		totalShipped += ns.FramesShipped
	}
	if totalRecords != 30 {
		t.Fatalf("nodes hold %d records, ingested 30", totalRecords)
	}
	if totalShipped != 30 {
		t.Fatalf("shipped %d frames, ingested 30", totalShipped)
	}

	if _, err := c.Kill("n1"); err != nil {
		t.Fatal(err)
	}
	st = c.Status()
	if st.Live != 2 {
		t.Fatalf("live = %d after kill", st.Live)
	}
	if st.Nodes[0].Alive {
		t.Fatal("killed node still reported alive")
	}
}

// TestClusterOpenValidation covers the constructor's input checks.
func TestClusterOpenValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, nil, Options{}); err == nil {
		t.Fatal("no nodes: want error")
	}
	if _, err := Open(dir, []string{"a", "a"}, Options{}); err == nil {
		t.Fatal("duplicate names: want error")
	}
	if _, err := Open(dir, []string{""}, Options{}); err == nil {
		t.Fatal("empty name: want error")
	}
	if _, err := Open(dir, []string{"a"}, memberWAL(store.WALOptions{OnFrame: func(int, []byte) error { return nil }})); err == nil {
		t.Fatal("caller-set OnFrame: want error")
	}
	// What a member cannot honour is refused, not dropped: failover
	// reads the hot store only, and N stores cannot share one corpus.
	for what, tmpl := range map[string]node.Options{
		"tiering": {Durable: store.DurableOptions{Tiered: &store.TieredOptions{}}},
		"corpus":  {Measurements: store.NewMeasurements()},
		"labels":  {Labels: store.NewLabels()},
	} {
		if _, err := Open(dir, []string{"a", "b"}, Options{Node: tmpl}); err == nil {
			t.Fatalf("member template with %s: want error", what)
		}
	}
	// Single node: no replication, but ingest works.
	c, err := Open(filepath.Join(dir, "solo"), []string{"a"}, memberWAL(store.WALOptions{Policy: store.SyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.abortAll()
	acked := ingestN(t, c, 10, 0, 10)
	if err := chaos.CheckRecovered(c.Union(), acked, acked); err != nil {
		t.Fatal(err)
	}
}
