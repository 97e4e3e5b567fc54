package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the exact q-quantile of the kept samples, interpolating
// linearly between closest ranks. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// beyond notes a percentile's sample count and how many samples lie above
// it, so a reader can see whether the percentile is resolved.
func beyond(n int, q float64) string {
	return fmt.Sprintf("%d samples, %d beyond", n, n-int(q*float64(n)+0.5))
}

// selfCPUSeconds is the user+system CPU time this process has used, read
// from CLOCK_PROCESS_CPUTIME_ID to the nanosecond (getrusage rounds to
// microseconds, too coarse for a short set-up). CPU time, unlike wall
// time, is not charged while a shared machine runs someone else's work on
// our CPUs.
func selfCPUSeconds() float64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Nano()) / 1e9
}

// procCPUSeconds is the CPU time process pid's live threads have used,
// summed from /proc/<pid>/task/*/schedstat (nanoseconds; the clock-tick
// counters of /proc/<pid>/stat are too coarse for a set-up); 0 if
// unavailable.
func procCPUSeconds(pid int) float64 {
	stats, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil {
		return 0
	}
	var ns float64
	for _, p := range stats {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
		}
	}
	return ns / 1e9
}

// selfPeakRSSMB is this process's peak resident set.
func selfPeakRSSMB() float64 { return peakRSSMB("/proc/self/status") }

// peakRSSMB reads VmHWM from a /proc status file; 0 if unavailable.
func peakRSSMB(statusPath string) float64 {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// machineTag names the machine a measurement was taken on: Go version,
// GOOS/GOARCH, CPU model, CPU count and GOMAXPROCS.
func machineTag() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s %s/%s cpu=%q nproc=%d gomaxprocs=%d",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// span is one timed call into the program, made from the benchmark's own
// code. Parent is the index of the enclosing span, -1 at the root. A mark
// is a span with Start == End.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory; the traced run writes them out at the end.
// It is not safe for concurrent use: concurrent callers each get their own.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = t.now() }

func (t *tracer) mark(name string, parent int) {
	n := t.now()
	t.spans = append(t.spans, span{Name: name, Start: n, End: n, Parent: parent})
}

// add merges another tracer's spans (re-parented) into t.
func (t *tracer) add(o *tracer) {
	off := len(t.spans)
	shift := int64(o.t0.Sub(t.t0))
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
	}
}

// selfTimes sums each span name's count, total and self time (total minus
// the part its children cover).
func (t *tracer) selfTimes() map[string][3]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][3]float64{}
	for i, s := range t.spans {
		v := out[s.Name]
		v[0]++
		v[1] += float64(s.End - s.Start)
		v[2] += float64(s.End - s.Start - child[i])
		out[s.Name] = v
	}
	return out
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
