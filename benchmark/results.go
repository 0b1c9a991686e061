package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// stamp says where and how a result file was measured.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Filesystem string `json:"filesystem"`
	Fsync      string `json:"fsync_policy"`
}

// workloadResult is one workload's section of results.json. A traced
// and an untraced run of the same workload fill different halves.
type workloadResult struct {
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Samples   map[string]int     `json:"samples,omitempty"`
	Notes     map[string]any     `json:"notes,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
}

type resultsFile struct {
	Stamp     stamp                      `json:"stamp"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// fsNames maps statfs magic numbers to the names an operator knows.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
}

func makeStamp(dir string) stamp {
	s := stamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		Filesystem: "unknown",
		Fsync:      "always",
	}
	// The driver's checkout is not a git repository; there the commit
	// stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		magic := int64(st.Type)
		if name, ok := fsNames[magic]; ok {
			s.Filesystem = name
		} else {
			s.Filesystem = fmt.Sprintf("0x%x", magic)
		}
	}
	return s
}

// saveResult merges this run into <out>/results.json: the workload's
// end-to-end half on an untraced run, its per-layer half on a traced
// one. The stamp describes the filesystem the WAL directories were on.
func saveResult(e *env, name string, res *result) error {
	path := filepath.Join(e.out, "results.json")
	file := resultsFile{Workloads: map[string]*workloadResult{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	file.Stamp = makeStamp(e.work)
	w := file.Workloads[name]
	if w == nil {
		w = &workloadResult{}
		file.Workloads[name] = w
	}
	w.Seed, w.Seconds = e.seed, e.seconds
	if e.trace {
		w.PerLayer = res.PerLayer
	} else {
		// Correctness and failures are judged on the untraced run, the
		// one the end-to-end metrics come from.
		w.EndToEnd = res.EndToEnd
		w.Correct, w.Attempted, w.Failed = res.Correct, res.Attempted, res.Failed
		w.Problems = res.Problems
	}
	if w.Samples == nil {
		w.Samples = map[string]int{}
	}
	for k, v := range res.Samples {
		w.Samples[k] = v
	}
	if w.Notes == nil {
		w.Notes = map[string]any{}
	}
	for k, v := range res.Notes {
		w.Notes[k] = v
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// failedShare is failed/attempted; a workload that attempted nothing
// did not run.
func (w *workloadResult) failedShare() float64 { return ratio(float64(w.Failed), float64(w.Attempted)) }

// runCompare prints, per workload and end-to-end metric, both values,
// the relative difference and the bound, and returns 1 when B is worse
// than A past a bound, has a higher failed share, or failed a check.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err == nil {
		var b *resultsFile
		if b, err = loadResults(pathB); err == nil {
			return compareResults(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark -compare:", err)
	return 2
}

func compareResults(w io.Writer, a, b *resultsFile) int {
	code := 0
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "B vs A", "bound")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			fmt.Fprintf(w, "%-18s missing from one side\n", wl.Name)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			rel := ratio(vb-va, va)
			worse := rel
			if m.Better == "higher" {
				worse = -rel
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  WORSE past bound"
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				wl.Name, m.Name, va, vb, 100*rel, 100*m.Bound, verdict)
		}
		fa, fb := ra.failedShare(), rb.failedShare()
		verdict := ""
		if fb > fa || !rb.Correct {
			verdict = "  WORSE: more failures or a failed output check"
			code = 1
		}
		fmt.Fprintf(w, "%-18s %-16s %14.6f %14.6f%s\n", wl.Name, "failed_share", fa, fb, verdict)
	}
	return code
}
