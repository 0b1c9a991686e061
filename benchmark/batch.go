package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"vibepm"
	"vibepm/internal/experiments"
)

// minBatches is how many times a run repeats the evaluation at least.
const minBatches = 3

// batchTimes is one pass of the paper's evaluation, stage by stage.
type batchTimes struct {
	fit, fig11, sweep, table3, fig15, table4, headline time.Duration
}

func (b batchTimes) total() time.Duration {
	return b.fit + b.fig11 + b.sweep + b.table3 + b.fig15 + b.table4 + b.headline
}

// paperBatch fits a fresh engine on the corpus and regenerates the
// paper's Fig. 11, Fig. 12–14 sweep, Table III, Fig. 15, Table IV and
// the headline economics, asserting the shapes EXPERIMENTS.md records.
// A fresh engine per pass keeps one pass from reading the trend cache
// the previous one filled.
//
// Each stage is a span under parent in t; an untraced pass hands in a
// throw-away tracer.
func paperBatch(res *result, c *corpus, seed int64, t *tracer, parent int) (batchTimes, error) {
	var bt batchTimes
	var err error
	timed := func(name string, d *time.Duration, f func() error) {
		if err != nil {
			return
		}
		id := t.span(name, parent, 0, false, func() { err = f() })
		*d = time.Duration(t.durUS(id) * 1e3)
	}
	eng := vibepm.NewWithStores(vibepm.Options{}, c.ds.Measurements, c.ds.Labels)
	timed("engine.fit_s", &bt.fit, eng.Fit)
	ec := &experiments.Corpus{Scale: experiments.Medium, Seed: seed, Dataset: c.ds, Engine: eng}
	timed("experiments.fig11_s", &bt.fig11, func() error {
		r, err := experiments.Fig11(ec)
		if err != nil {
			return err
		}
		// Shape: three ordered densities with the minimum-error boundary
		// between the BC and D modes.
		mean := map[vibepm.Zone]float64{}
		for _, d := range r.Densities {
			mean[d.Zone] = d.Mean
		}
		if !(mean[vibepm.ZoneA] < mean[vibepm.ZoneBC] && mean[vibepm.ZoneBC] < r.Boundary && r.Boundary < mean[vibepm.ZoneD]) {
			res.fail("fig11: zone means %v and BC/D boundary %v are not ordered A < BC < boundary < D", mean, r.Boundary)
		}
		return nil
	})
	timed("experiments.sweep_s", &bt.sweep, func() error { _, err := experiments.Sweep(ec); return err })
	timed("experiments.table3_s", &bt.table3, func() error { _, err := experiments.Table3(ec); return err })
	timed("experiments.fig15_s", &bt.fig15, func() error {
		r, err := experiments.Fig15(ec)
		if err != nil {
			return err
		}
		// Shape: two lifetime models, the short-term one steeper.
		if n := len(r.Models.Models); n != 2 {
			res.fail("fig15: %d lifetime models, want 2", n)
		} else if r.Models.Models[0].Slope >= r.Models.Models[1].Slope {
			res.fail("fig15: Model I slope %v is not below Model II slope %v", r.Models.Models[0].Slope, r.Models.Models[1].Slope)
		}
		return nil
	})
	timed("experiments.table4_s", &bt.table4, func() error {
		r, err := experiments.Table4(ec)
		if err == nil && len(r.Rows) != c.sizes.Pumps {
			res.fail("table4: %d rows, want %d pumps", len(r.Rows), c.sizes.Pumps)
		}
		return err
	})
	timed("experiments.headline_s", &bt.headline, func() error { _, err := experiments.Headline(ec); return err })
	return bt, err
}

func runPaperBatch(e *env) (*result, error) {
	res := newResult()
	// Set-up is corpus generation, which the researcher pays on every
	// run of the evaluation.
	var setups []timed
	var c *corpus
	for k := 0; k < e.setups(); k++ {
		c = nil
		runtime.GC() // one corpus resident at a time, so peak_rss_mb is the evaluation's
		start := time.Now()
		var err error
		if c, err = generateCorpus(batchFleet, e.seed); err != nil {
			return nil, err
		}
		setups = append(setups, timed{e.host.since(start), ms(time.Since(start))})
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
	}
	trend := c.ds.Measurements.Len() - len(c.ds.LabelledRecords)
	res.Notes["corpus"] = fmt.Sprintf("%d trend records + %d labelled", trend, len(c.ds.LabelledRecords))

	var batches, views []timed // at = when the pass (its Fig. 15) began, v in ms
	var last batchTimes
	deadline := time.Now().Add(e.window())
	for n := 0; n < minBatches || time.Now().Before(deadline); n++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		res.Attempted++
		began := time.Now()
		bt, err := paperBatch(res, c, e.seed, newTracer(), 0)
		if err != nil {
			res.Failed++
			res.fail("batch %d: %v", n, err)
			continue
		}
		last = bt
		batches = append(batches, timed{e.host.since(began), ms(bt.total())})
		views = append(views, timed{e.host.since(began.Add(bt.fit + bt.fig11 + bt.sweep + bt.table3)), ms(bt.fig15 + bt.table4)})
		if e.trace {
			break // one untraced pass for trace.gap_ms; the traced pass needs the rest
		}
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("no batch succeeded: %v", res.Problems)
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}

	setupS := median(unstretched(e.host, setups)) / 1000
	batchMS := median(atFullSpeed(e.host, batches))
	res.Notes["batch_ms"] = fmt.Sprintf("%.0f as measured", values(batches))
	res.Notes["host"] = e.host.note()
	res.EndToEnd["setup_s"] = setupS
	res.EndToEnd["op_ms"] = batchMS
	res.EndToEnd["view_ms"] = median(atFullSpeed(e.host, views))
	res.EndToEnd["capacity_per_s"] = float64(trend) / (batchMS / 1000)
	res.EndToEnd["peak_rss_mb"] = rss
	res.Samples["setup_s"] = len(setups)
	for _, m := range []string{"op_ms", "view_ms", "capacity_per_s"} {
		res.Samples[m] = len(batches)
	}

	if e.trace {
		if err := traceBatch(e, res, c, last, setupS); err != nil {
			return nil, err
		}
	}
	return res, nil
}
