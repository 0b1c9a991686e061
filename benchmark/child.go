package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// readyTimeout bounds exec → first successful response; a child that
// misses it counts as a failed operation.
const readyTimeout = 60 * time.Second

// buildVibed compiles the real server from ./cmd/vibed into dir.
func buildVibed(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "vibed")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/vibed")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/vibed: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// child is one running vibed.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *os.File
	waited chan struct{}
}

// startVibed execs bin with args on a free port and polls readyPath
// until it answers 200. It returns the child and exec → ready. The
// child's stderr goes to stderrPath.
func startVibed(ctx context.Context, bin string, args []string, stderrPath, readyPath string) (*child, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(stderrPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logf
	// The child must not outlive a harness that is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("exec vibed: %w", err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, stderr: logf, waited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status of a killed child carries nothing
		close(c.waited)
	}()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(c.base + readyPath)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start), nil
			}
		}
		select {
		case <-c.waited:
			c.stop()
			return nil, 0, fmt.Errorf("vibed exited before ready; stderr in %s", stderrPath)
		case <-ctx.Done():
			c.stop()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > readyTimeout {
			c.stop()
			return nil, 0, fmt.Errorf("vibed not ready after %v; stderr in %s", readyTimeout, stderrPath)
		}
	}
}

// stop kills the child (SIGKILL: the workloads measure crash recovery,
// not shutdown) and waits until it has ended.
func (c *child) stop() {
	_ = c.cmd.Process.Kill()
	<-c.waited
	c.stderr.Close()
}

// peakRSSMB reads the child's resident-set high-water mark.
func (c *child) peakRSSMB() (float64, error) { return vmHWM(c.cmd.Process.Pid) }

// vmHWM returns VmHWM of /proc/<pid>/status in MB.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// scrape reads a Prometheus text exposition into series → value. The
// key is the series exactly as exposed, labels included.
func scrape(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrapeChild fetches the child's /api/v1/metrics.
func scrapeChild(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/api/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /api/v1/metrics: status %d", resp.StatusCode)
	}
	return scrape(resp.Body)
}

// delta returns after − before for one series.
func delta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}
