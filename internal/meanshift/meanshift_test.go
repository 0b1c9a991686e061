package meanshift

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// blob draws n points around center with the given spread.
func blob(rng *rand.Rand, center []float64, spread float64, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, len(center))
		for j, c := range center {
			p[j] = c + rng.NormFloat64()*spread
		}
		pts[i] = p
	}
	return pts
}

func TestClusterTwoBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := append(blob(rng, []float64{0, 0}, 0.1, 50), blob(rng, []float64{5, 5}, 0.1, 50)...)
	res, err := Cluster(pts, Config{Bandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 2 {
		t.Fatalf("found %d clusters, want 2", len(res.Centers))
	}
	// Points from the same blob must share a label.
	for i := 1; i < 50; i++ {
		if res.Labels[i] != res.Labels[0] {
			t.Fatalf("blob 1 split: labels %v and %v", res.Labels[0], res.Labels[i])
		}
	}
	for i := 51; i < 100; i++ {
		if res.Labels[i] != res.Labels[50] {
			t.Fatalf("blob 2 split")
		}
	}
	if res.Labels[0] == res.Labels[50] {
		t.Fatal("blobs merged")
	}
	// Centers near the true means.
	for _, c := range res.Centers {
		d0 := dist(c, []float64{0, 0})
		d1 := dist(c, []float64{5, 5})
		if math.Min(d0, d1) > 0.2 {
			t.Fatalf("center %v far from both true modes", c)
		}
	}
}

func TestClusterSingleMode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := blob(rng, []float64{1, 2, 3}, 0.3, 100)
	res, err := Cluster(pts, Config{Bandwidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 1 {
		t.Fatalf("found %d clusters, want 1", len(res.Centers))
	}
	if res.Sizes[0] != 100 {
		t.Fatalf("cluster size %d", res.Sizes[0])
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster([][]float64{{1}}, Config{}); !errors.Is(err, ErrBandwidth) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Cluster(nil, Config{Bandwidth: 1}); !errors.Is(err, ErrNoPoints) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Cluster([][]float64{{1, 2}, {1}}, Config{Bandwidth: 1}); err == nil {
		t.Fatal("want dimension error")
	}
}

func TestOutlierDetectionScenario(t *testing.T) {
	// The Fig. 8(b) scenario: a dense regime of valid averages plus a
	// handful of drifted/step-changed measurements far away.
	rng := rand.New(rand.NewSource(4))
	valid := blob(rng, []float64{0.02, -0.01, 0.98}, 0.02, 200)
	drifted := blob(rng, []float64{0.9, 0.4, 1.6}, 0.05, 8)
	pts := append(valid, drifted...)
	res, err := Cluster(pts, Config{Bandwidth: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// The regime the first valid average landed in keeps all 200.
	main := res.Labels[0]
	if got := len(pts) - res.Sizes[main]; got != 8 {
		t.Fatalf("flagged %d outliers, want 8", got)
	}
	for idx, l := range res.Labels[:200] {
		if l != main {
			t.Fatalf("valid measurement %d flagged as outlier", idx)
		}
	}
}

func TestClusterSinglePoint(t *testing.T) {
	res, err := Cluster([][]float64{{3, 4}}, Config{Bandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 1 || res.Labels[0] != 0 {
		t.Fatalf("single point result: %+v", res)
	}
	if res.Sizes[0] != 1 {
		t.Fatal("single point cannot be an outlier")
	}
}

func TestClusterDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := blob(rng, []float64{0, 0}, 0.5, 60)
	a, err := Cluster(pts, Config{Bandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(pts, Config{Bandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Centers) != len(b.Centers) {
		t.Fatal("non-deterministic cluster count")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("non-deterministic labels")
		}
	}
}
