package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// setupRepeats is how often an untraced run sets up, to report a
// median set-up time; a traced run sets up once. The serving workloads
// measure on every child they boot: a run is setupRepeats rounds.
const setupRepeats = 3

func (e *env) setups() int {
	if e.trace {
		return 1
	}
	return setupRepeats
}

// window is the length of the child-process measurement: the whole
// -seconds without tracing, half of it with (the other half goes to
// the in-process traced pass).
func (e *env) window() time.Duration {
	s := e.seconds
	if e.trace {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// conn is one keep-alive HTTP connection to the child.
type conn struct {
	client *http.Client
	base   string
}

func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// roundTrip sends one request and drains the response.
func (c *conn) roundTrip(method, path string, body []byte, ifNoneMatch string) (status int, respBody []byte, etag string, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	respBody, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, "", err
	}
	return resp.StatusCode, respBody, resp.Header.Get("ETag"), nil
}

// getJSON fetches path and decodes a 200 response into v.
func (c *conn) getJSON(path string, v any) error {
	status, body, _, err := c.roundTrip(http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", path, status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// servingRounds saves the corpus as a -data directory and, e.setups()
// times, boots `vibed -data D -wal-dir W -faults=true <extra>` on an
// empty WAL directory, hands the child to round, and kills it. Every
// round measures a share of the window on its own child, so a run's
// numbers come from several processes spread over the whole run, not
// from one stretch of one. It returns every exec → ready time (at = the
// exec, v in ms) and every child's peak resident set in MB.
func servingRounds(e *env, c *corpus, extra []string, round func(k int, ch *child) error) (setups []timed, rss []float64, err error) {
	bin, err := e.vibed()
	if err != nil {
		return nil, nil, err
	}
	dataDir := filepath.Join(e.work, "data")
	if err := c.save(dataDir); err != nil {
		return nil, nil, err
	}
	for k := 0; k < e.setups(); k++ {
		walDir := filepath.Join(e.work, fmt.Sprintf("wal-%d", k))
		args := append([]string{"-data", dataDir, "-wal-dir", walDir, "-faults=true"}, extra...)
		runtime.GC() // the generator's own collection happens between rounds, not inside one
		began := e.host.since(time.Now())
		ch, ready, err := startVibed(e.ctx, bin, args, filepath.Join(e.out, "vibed.stderr"), "/api/v1/healthz")
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, timed{began, ms(ready)})
		err = round(k, ch)
		if err == nil {
			var mb float64
			if mb, err = ch.peakRSSMB(); err == nil {
				rss = append(rss, mb)
			}
		}
		ch.stop()
		if err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(walDir); err != nil {
			return nil, nil, err
		}
	}
	return setups, rss, nil
}

// pauseGC switches the generator's garbage collector off for the
// measured phases of a round (a few hundred MB of request and response
// buffers at most) and returns the function that switches it back on: a
// collection cycle takes a quarter of the generator's two threads and
// makes the lanes assist, which shows up as latency that is not the
// program's.
func pauseGC() (resume func()) {
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// trendJSON is the part of a trend response the checks read.
type trendJSON struct {
	PumpID      int `json:"pump_id"`
	TotalPoints int `json:"total_points"`
}

// tally is the bookkeeping every generator lane keeps: operations
// attempted and failed, the first few failures in words, and the
// service days of the writes each pump acknowledged.
type tally struct {
	attempted int
	failed    int
	problems  []string
	accepted  map[int][]float64
}

func newTally() tally { return tally{accepted: map[int][]float64{}} }

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < 5 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// merge folds the lanes' tallies into the result and returns the
// acknowledged writes per pump.
func merge(res *result, tallies []*tally) map[int][]float64 {
	acked := map[int][]float64{}
	for _, t := range tallies {
		res.Attempted += t.attempted
		res.Failed += t.failed
		for _, p := range t.problems {
			res.fail("%s", p)
		}
		for pump, days := range t.accepted {
			acked[pump] = append(acked[pump], days...)
		}
	}
	return acked
}

// backlog counts requests still unsent when an open-loop phase ended:
// they never got an answer.
func backlog(res *result, unsent int) {
	res.Attempted += unsent
	res.Failed += unsent
	if unsent > 0 {
		res.fail("phase A ended with a backlog of %d unsent requests", unsent)
	}
}
