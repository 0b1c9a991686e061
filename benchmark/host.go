package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostClock records, over a run, the two things this machine's host
// does to the work on it. The sandbox is a few virtual cores of a
// shared host.
//
// What it takes outright: the "steal" column of /proc/stat beside the
// busy ones. For minutes on end a neighbour takes 25–60 % of the
// virtual cores. While a virtual core is stolen the work on it stands
// still, so a time measured then is stretched by what was stolen and a
// rate is cut by it; /proc/stat says by how much, slice by slice. Ten
// runs of ingest_steady of which three met such minutes spread 22 % of
// their median between the quartiles as measured and 2–5 % with every
// slice scaled by unstolen(); the seven undisturbed runs are not
// touched, because nothing was stolen from them. The scaling treats a
// time as made of CPU work only. The part of an operation that waits
// for the disk does not stretch, so a heavily stolen slice comes out a
// few per cent low; the lowest slices are the ones least stolen from,
// where the factor is closest to 1.
//
// How fast the cores it leaves are: a virtual core whose hyperthread
// sibling runs a neighbour's work computes at 50–100 % of its speed, no
// counter says so, and the share of time that is so drifts over
// minutes. So the clock measures it: every probeEvery it times
// probeWork, a fixed piece of arithmetic, wherever the scheduler puts
// it. speed() averages what those samples say over an interval; an
// operation of seconds that computes throughout took work / speed. Two
// sets of ten runs, half an hour apart: the median paper_batch pass
// took 2,276 and 2,061 ms as measured (quartile spread 18 % and 7 % of
// the median), 1,504 and 1,553 ms at full speed (3.6 % and 3.0 %); the
// median restart 3,457 and 3,041 ms as measured (10 % and 20 %), 2,474
// and 2,513 ms at full speed (2.6 % and 2.9 %).
type hostClock struct {
	epoch time.Time
	stop  chan struct{}
	done  chan struct{}

	mu      sync.Mutex
	at      []float64 // seconds since epoch
	busy    []float64 // cumulative ticks: user + nice + system + irq + softirq
	stolen  []float64 // cumulative ticks: steal
	probeAt []float64 // seconds since epoch
	probeUS []float64 // what probeWork took then
	sink    float64   // probeWork's results: keeps the compiler from dropping the work
}

// probeEvery is how often the core's speed is sampled: 1.4 % of one
// core. /proc/stat is read every hostSampleEvery-th time: its counters
// move in 10 ms ticks, and a slice is 250 ms or more.
const (
	probeEvery      = 10 * time.Millisecond
	hostSampleEvery = 5
)

// probeQuietUS is what probeWork takes on a core of this sandbox that
// nothing contends for: the fastest of a run's ~2,000 samples is
// 130–137 µs, run after run. It is the unit of speed(): on another
// machine it would restate every scaled time by one constant factor and
// change no comparison.
const probeQuietUS = 135.0

// probeCut is the multiple of probeQuietUS past which a sample says the
// probe was taken off its core (stolen, or pre-empted), not how fast
// the core is: a busy sibling costs a factor of two at most.
const probeCut = 3

// probeWork is the fixed piece of arithmetic: 4 KB of floats that stay
// in the first-level cache, rotated 600 times.
func probeWork() float64 {
	var x, y [256]float64
	for i := range x {
		x[i] = float64(i) * 0.001
		y[i] = 1 - x[i]
	}
	const c, s = 0.9998, 0.02
	for rep := 0; rep < 600; rep++ {
		for i := range x {
			a, b := x[i], y[i]
			x[i] = a*c - b*s
			y[i] = a*s + b*c
		}
	}
	return x[5] + y[7]
}

// startHostClock samples until close is called.
func startHostClock() *hostClock {
	h := &hostClock{epoch: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for n := 1; ; n++ {
			select {
			case <-tick.C:
				h.probe()
				if n%hostSampleEvery == 0 {
					h.sample()
				}
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// probe times probeWork once.
func (h *hostClock) probe() {
	start := time.Now()
	work := probeWork()
	took := time.Since(start)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sink += work
	h.probeAt = append(h.probeAt, h.since(start))
	h.probeUS = append(h.probeUS, float64(took)/float64(time.Microsecond))
}

func (h *hostClock) close() {
	close(h.stop)
	<-h.done
}

// since is t on the run's clock, in seconds.
func (h *hostClock) since(t time.Time) float64 { return t.Sub(h.epoch).Seconds() }

// sample appends the machine's CPU totals. A kernel without the steal
// column (or no /proc/stat at all) leaves the record empty, and
// unstolen answers 1.
func (h *hostClock) sample() {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return
	}
	defer f.Close()
	line, _ := bufio.NewReader(f).ReadString('\n')
	busy, stolen, ok := parseCPULine(line)
	if !ok {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.at = append(h.at, h.since(time.Now()))
	h.busy = append(h.busy, busy)
	h.stolen = append(h.stolen, stolen)
}

// parseCPULine reads the first line of /proc/stat:
// cpu user nice system idle iowait irq softirq steal ...
func parseCPULine(line string) (busy, stolen float64, ok bool) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	var v [9]float64
	for i := 1; i < 9; i++ {
		x, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0, false
		}
		v[i] = x
	}
	return v[1] + v[2] + v[3] + v[6] + v[7], v[8], true
}

// unstolen is the share of the CPU time wanted between t0 and t1
// (seconds on the run's clock) that the machine got: busy / (busy +
// stolen), 1 when nothing was stolen or nothing is known. A nil clock
// answers 1.
func (h *hostClock) unstolen(t0, t1 float64) float64 {
	if h == nil {
		return 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.at) < 2 {
		return 1
	}
	busy := interpolate(h.at, h.busy, t1) - interpolate(h.at, h.busy, t0)
	stolen := interpolate(h.at, h.stolen, t1) - interpolate(h.at, h.stolen, t0)
	if stolen <= 0 || busy+stolen <= 0 {
		return 1
	}
	return busy / (busy + stolen)
}

// minProbes is how many samples an interval needs for speed to speak
// for it; with fewer, the whole run's speed stands in.
const minProbes = 10

// speed is how fast the cores ran between t0 and t1 (seconds on the
// run's clock) as a share of an uncontended core's speed: the mean of
// probeQuietUS / sample over the probes started then. The mean of
// speeds, not of times: work done is speed × time, and the probes are
// evenly spaced in time. A nil clock, or one that never probed, answers
// 1.
func (h *hostClock) speed(t0, t1 float64) float64 {
	if h == nil {
		return 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	lo, hi := sort.SearchFloat64s(h.probeAt, t0), sort.SearchFloat64s(h.probeAt, t1)
	if v, n := meanSpeed(h.probeUS[lo:hi]); n >= minProbes {
		return v
	}
	if v, n := meanSpeed(h.probeUS); n > 0 {
		return v
	}
	return 1
}

// meanSpeed averages probeQuietUS / sample over the samples within
// probeCut and says how many those were.
func meanSpeed(us []float64) (v float64, n int) {
	for _, u := range us {
		if u < probeCut*probeQuietUS {
			v += probeQuietUS / u
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return v / float64(n), n
}

// interpolate reads the cumulative series ys, sampled at xs, at x.
func interpolate(xs, ys []float64, x float64) float64 {
	i := sort.SearchFloat64s(xs, x)
	switch {
	case i == 0:
		return ys[0]
	case i == len(xs):
		return ys[len(ys)-1]
	}
	return ys[i-1] + (ys[i]-ys[i-1])*(x-xs[i-1])/(xs[i]-xs[i-1])
}

// note says what the host took and left over the whole run, for the result's notes.
func (h *hostClock) note() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.at) < 2 {
		return "no /proc/stat steal column: times are as measured"
	}
	n := len(h.at) - 1
	busy, stolen := h.busy[n]-h.busy[0], h.stolen[n]-h.stolen[0]
	speed, probes := meanSpeed(h.probeUS)
	return fmt.Sprintf("%.1f%% of the CPU time wanted over the run (%.0f of %.0f ticks); the cores it left ran at %.0f%% of an uncontended core's speed (%d probes)",
		100*ratio(stolen, busy+stolen), stolen, busy+stolen, 100*speed, probes)
}
