package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileSampleRule(t *testing.T) {
	if got := samplesFor(0.9); got != 100 {
		t.Fatalf("samplesFor(0.9) = %d, want 100", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	p90, err := percentile(xs, 0.9)
	if err != nil || p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", p90, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples leaves 9 beyond it; want an error")
	}
	if p50, err := percentile(xs[:3], 0.5); err != nil || p50 != 99 {
		t.Fatalf("p50 of {100,99,98} = %v, %v; want 99", p50, err)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 0.5}, {40, 0.75}, {100, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedianMeanMax(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := mean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("mean = %v", m)
	}
	if m := maxOf([]float64{-3, -1, -2}); m != -1 {
		t.Errorf("maxOf negatives = %v", m)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty samples should read 0")
	}
}

func TestStatusField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "status")
	body := "Name:\tx\nVmPeak:\t  9999 kB\nVmHWM:\t    1234 kB\nVmRSS:\t 1000 kB\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if v, err := statusField(path, "VmHWM"); err != nil || v != 1234 {
		t.Fatalf("VmHWM = %d, %v; want 1234", v, err)
	}
	if _, err := statusField(path, "VmSwap"); err == nil {
		t.Fatal("missing key should error")
	}
}

func TestCPUAndRSSReaders(t *testing.T) {
	m := startMeter()
	// Burn CPU and touch 64 MiB so both readers have something to see.
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	// A child process must show up in the children's CPU and RSS.
	if err := exec.Command(os.Args[0], "-test.run=^$").Run(); err != nil {
		t.Fatal(err)
	}
	m.stop()
	if m.cpu < 50*time.Millisecond || m.cpu > m.wall*time.Duration(4) {
		t.Errorf("window CPU %v for %v wall of busy work", m.cpu, m.wall)
	}
	if m.childCPUd <= 0 {
		t.Errorf("children CPU %v after running a child", m.childCPUd)
	}
	if childrenMaxRSSKB() <= 0 {
		t.Error("no child ru_maxrss after running a child")
	}
	peak, err := m.peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if peak < 64 {
		t.Errorf("peak RSS %.1f MiB after touching 64 MiB", peak)
	}
	if buf[len(buf)-1] != byte(len(buf)-1) || x == 0 {
		t.Fatal("unreachable")
	}
}
