package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the sample rule for reported percentiles: a percentile is
// reported only when at least this many samples lie beyond it.
const minBeyond = 10

// quantileLadder lists the percentiles tailQuantile may report, highest
// first.
var quantileLadder = []float64{0.999, 0.99, 0.9, 0.75, 0.5}

// samplesFor is the smallest sample count that supports percentile q
// under the minBeyond rule (100 for p90).
func samplesFor(q float64) int {
	for n := 1; ; n++ {
		if beyond(n, q) >= minBeyond {
			return n
		}
	}
}

// beyond counts the samples of an n-sample set that lie beyond its
// nearest-rank q-th percentile.
func beyond(n int, q float64) int {
	return n - nearestRank(n, q)
}

// nearestRank is the 1-based nearest-rank index of percentile q in n
// sorted samples.
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-th percentile of xs, or an error
// when fewer than minBeyond samples would lie beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", q*100)
	}
	if q > 0.5 && beyond(len(xs), q) < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", q*100, samplesFor(q), len(xs))
	}
	s := sortedCopy(xs)
	return s[nearestRank(len(s), q)-1], nil
}

// tailQuantile is the highest percentile on quantileLadder that the
// sample count supports.
func tailQuantile(n int) float64 {
	for _, q := range quantileLadder {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the midpoint of xs (mean of the two middle samples for even
// counts); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the user+system CPU time consumed so far by this process
// (self) and by its reaped child processes (children).
func cpuTime() (self, children time.Duration) {
	return rusageCPU(syscall.RUSAGE_SELF), rusageCPU(syscall.RUSAGE_CHILDREN)
}

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childrenMaxRSSKB is the largest resident set, in KiB, of any reaped
// child process.
func childrenMaxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss)
}

// selfPeakRSSKB reads this process's peak resident set (VmHWM), in KiB.
func selfPeakRSSKB() (int64, error) {
	return statusField("/proc/self/status", "VmHWM")
}

// statusField reads one "Key:   <n> kB" line of a /proc status file.
func statusField(path, key string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, key+":"))
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// resetPeakRSS sets this process's VmHWM back to its current resident
// set (Linux clear_refs), so a window's peak excludes set-up work.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// procMeter measures a window's wall time, the CPU time spent in it by
// this process and its children, and its peak resident set.
type procMeter struct {
	start                time.Time
	selfCPU, childCPU    time.Duration
	wall, cpu, childCPUd time.Duration
	// peakReset reports whether VmHWM was reset at the window's start.
	peakReset bool
}

// startMeter returns the heap to the OS, resets the peak resident set
// and opens the window.
func startMeter() *procMeter {
	debug.FreeOSMemory()
	m := &procMeter{peakReset: resetPeakRSS() == nil}
	m.start = time.Now()
	m.selfCPU, m.childCPU = cpuTime()
	return m
}

// stop closes the window.
func (m *procMeter) stop() {
	m.wall = time.Since(m.start)
	self, child := cpuTime()
	m.childCPUd = child - m.childCPU
	m.cpu = self - m.selfCPU + m.childCPUd
}

// peakRSSMB is the window's peak resident set in MiB: this process's
// VmHWM, or the largest child's ru_maxrss when that is larger and the
// window reaped children (ru_maxrss covers every child ever reaped, so a
// window without children leaves it out).
func (m *procMeter) peakRSSMB() (float64, error) {
	self, err := selfPeakRSSKB()
	if err != nil {
		return 0, err
	}
	if c := childrenMaxRSSKB(); m.childCPUd > 0 && c > self {
		self = c
	}
	return float64(self) / 1024, nil
}
