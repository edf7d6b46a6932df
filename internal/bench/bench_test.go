package bench

import (
	"strings"
	"sync/atomic"
	"testing"

	"phirel/internal/state"
)

// toy is a minimal benchmark for harness tests: it sums 1..n into each
// output slot across `iters` ticks, with the loop bound in a corruptible
// cell so tests can force hangs, crashes, and SDCs.
type toy struct {
	reg     *state.Registry
	n       *state.Int
	base    *state.Int // base output index; corrupting it causes worker OOB
	out     *state.F64s
	iters   int
	workers int
	// hooks for tests
	crashAtTick int // -1 disables
}

func newToy() *toy {
	t := &toy{
		reg:         state.NewRegistry(),
		iters:       10,
		workers:     2,
		crashAtTick: -1,
	}
	t.n = state.NewInt("n", "control", 50)
	t.base = state.NewInt("base", "control", 0)
	t.out = state.NewF64s("out", "matrix", state.Dims2(4, 4))
	t.reg.Global().Register(t.n, t.base, t.out)
	return t
}

func (t *toy) Name() string              { return "toy" }
func (t *toy) Class() Class              { return Algebraic }
func (t *toy) Windows() int              { return 5 }
func (t *toy) Registry() *state.Registry { return t.reg }

func (t *toy) Reset() {
	t.reg.PopAll()
	t.n.Store(50)
	t.base.Store(0)
	for i := range t.out.Data {
		t.out.Data[i] = 0
	}
}

func (t *toy) Run(ctx *Ctx) {
	for it := ctx.Start(); it < t.iters; it++ {
		ctx.Outer(it)
		ctx.Tick()
		if it == t.crashAtTick {
			panic("forced crash")
		}
		ParallelFor(t.workers, t.out.Len(), func(w, start, end int) {
			for i := start; i < end; i++ {
				sum := 0.0
				bound := t.n.Load()
				ctx.Work(int64(bound)) // reserve budget before the corruptible loop
				for k := 1; k <= bound; k++ {
					sum += float64(k)
				}
				t.out.Data[t.base.Load()+i] += sum
			}
		})
	}
}

func (t *toy) Snapshot(s *Snap) { s.F64s(t.out.Data) }

func (t *toy) Output() Output {
	return Output{Vals: append([]float64(nil), t.out.Data...), Shape: t.out.Shape}
}

func TestRunnerGolden(t *testing.T) {
	b := newToy()
	r, err := NewRunner(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalTicks != 10 {
		t.Fatalf("ticks = %d", r.TotalTicks)
	}
	want := float64(10 * 50 * 51 / 2)
	for _, v := range r.Golden.Vals {
		if v != want {
			t.Fatalf("golden value %v, want %v", v, want)
		}
	}
	if r.GoldenWork != int64(10*16*50) {
		t.Fatalf("golden work = %d", r.GoldenWork)
	}
}

func TestRunnerGoldenDeterministic(t *testing.T) {
	b := newToy()
	r, err := NewRunner(b)
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunGolden()
	if res.Status != Completed {
		t.Fatalf("status %v", res.Status)
	}
	if !CompareExact(r.Golden, res.Output) {
		t.Fatal("golden re-run differs")
	}
}

func TestRunInjectedMasked(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	res := r.RunInjected(3, func() {}) // no-op injection
	if res.Status != Completed || !res.Injected {
		t.Fatalf("res = %+v", res)
	}
	if !CompareExact(r.Golden, res.Output) {
		t.Fatal("no-op injection changed output")
	}
}

func TestRunInjectedSDC(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	res := r.RunInjected(5, func() { b.out.Data[3] += 1 })
	if res.Status != Completed {
		t.Fatalf("status %v", res.Status)
	}
	if CompareExact(r.Golden, res.Output) {
		t.Fatal("corruption did not surface in output")
	}
}

func TestRunInjectedHang(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	res := r.RunInjected(2, func() { b.n.Store(1 << 40) })
	if res.Status != Hung {
		t.Fatalf("status %v (%s), want Hung", res.Status, res.PanicMsg)
	}
	if !strings.Contains(res.PanicMsg, "watchdog") {
		t.Fatalf("panic msg %q", res.PanicMsg)
	}
}

func TestRunInjectedCrashInWorker(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	res := r.RunInjected(2, func() { b.base.Store(1000) }) // out[1000+i] is OOB in workers
	if res.Status != Crashed {
		t.Fatalf("status %v, want Crashed", res.Status)
	}
	if res.PanicMsg == "" {
		t.Fatal("crash lost its message")
	}
	// The runner must remain usable afterwards.
	res2 := r.RunInjected(2, func() {})
	if res2.Status != Completed || !CompareExact(r.Golden, res2.Output) {
		t.Fatalf("runner broken after crash: %+v", res2.Status)
	}
}

func TestRunnerCrashOnOrchestrator(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	b.crashAtTick = 4
	res := r.RunGolden()
	if res.Status != Crashed || !strings.Contains(res.PanicMsg, "forced crash") {
		t.Fatalf("res = %+v", res)
	}
	b.crashAtTick = -1
}

func TestRunnerPopsFramesAfterAbort(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	res := r.RunInjected(1, func() {
		b.reg.Push("phase") // simulate a phase frame live at abort time
		b.n.Store(1 << 40)
	})
	if res.Status != Hung {
		t.Fatalf("status %v", res.Status)
	}
	if b.reg.Depth() != 1 {
		t.Fatalf("registry depth %d after abort, want 1", b.reg.Depth())
	}
}

func TestWindowMapping(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	// 10 ticks into 5 windows → 2 ticks per window.
	wants := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}
	for tick, want := range wants {
		if got := r.Window(tick); got != want {
			t.Errorf("Window(%d) = %d, want %d", tick, got, want)
		}
	}
	if r.Window(-3) != 0 || r.Window(99) != 4 {
		t.Error("window clamping wrong")
	}
	lo, hi := r.WindowBounds(2)
	if lo != 4 || hi != 6 {
		t.Errorf("WindowBounds(2) = [%d,%d)", lo, hi)
	}
}

func TestInjectionFiresExactlyOnce(t *testing.T) {
	b := newToy()
	r, _ := NewRunner(b)
	var fires int32
	res := r.RunInjected(0, func() { atomic.AddInt32(&fires, 1) })
	if res.Status != Completed || fires != 1 {
		t.Fatalf("fires = %d, status %v", fires, res.Status)
	}
}

func TestCompareExactNaN(t *testing.T) {
	nan := func() float64 {
		var z float64
		return z / z
	}()
	a := Output{Vals: []float64{1, nan}}
	b := Output{Vals: []float64{1, nan}}
	if !CompareExact(a, b) {
		t.Fatal("identical NaN outputs reported as mismatch")
	}
	c := Output{Vals: []float64{1, 2}}
	if CompareExact(a, c) {
		t.Fatal("NaN vs number reported equal")
	}
	if CompareExact(a, Output{Vals: []float64{1}}) {
		t.Fatal("length mismatch reported equal")
	}
}

func TestParallelForCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		n := 100
		var hits atomic.Int64
		seen := make([]atomic.Bool, n)
		ParallelFor(workers, n, func(w, start, end int) {
			for i := start; i < end; i++ {
				if seen[i].Swap(true) {
					t.Errorf("index %d visited twice", i)
				}
				hits.Add(1)
			}
		})
		if hits.Load() != int64(n) {
			t.Fatalf("workers=%d visited %d of %d", workers, hits.Load(), n)
		}
	}
}

func TestParallelForEmpty(t *testing.T) {
	called := false
	ParallelFor(4, 0, func(w, s, e int) { called = true })
	if called {
		t.Fatal("body called for n=0")
	}
}

func TestParallelForMoreWorkersThanWork(t *testing.T) {
	var hits atomic.Int64
	ParallelFor(64, 3, func(w, s, e int) { hits.Add(int64(e - s)) })
	if hits.Load() != 3 {
		t.Fatalf("visited %d of 3", hits.Load())
	}
}

func TestParallelForPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		cp, ok := r.(capturedPanic)
		if !ok {
			t.Fatalf("recovered %T, want capturedPanic", r)
		}
		if cp.val != "boom" {
			t.Fatalf("panic value %v", cp.val)
		}
	}()
	ParallelFor(4, 100, func(w, start, end int) {
		if start == 0 {
			panic("boom")
		}
	})
	t.Fatal("panic did not propagate")
}

func TestCtxWatchdog(t *testing.T) {
	ctx := newCtx(-1, nil, 100, nil)
	ctx.Work(99)
	defer func() {
		if _, ok := recover().(watchdogFired); !ok {
			t.Fatal("watchdog did not fire")
		}
	}()
	ctx.Work(50)
}

func TestCtxUnlimitedBudget(t *testing.T) {
	ctx := newCtx(-1, nil, 0, nil)
	ctx.Work(1 << 50) // must not panic
	if ctx.WorkDone() != 1<<50 {
		t.Fatal("work accounting")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register("dup-test", func(seed uint64) Benchmark { return newToy() })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("dup-test", func(seed uint64) Benchmark { return newToy() })
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("no-such-benchmark", 1); err == nil {
		t.Fatal("New accepted unknown name")
	}
}

func TestHas(t *testing.T) {
	Register("has-test", func(seed uint64) Benchmark { return newToy() })
	if !Has("has-test") {
		t.Fatal("Has missed a registered benchmark")
	}
	if Has("no-such-benchmark") {
		t.Fatal("Has accepted unknown name")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatal("Names not sorted")
		}
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []Outcome{Masked, SDC, DUECrash, DUEHang, DUEMCA} {
		if o.String() == "" {
			t.Fatal("empty outcome name")
		}
	}
	if !DUECrash.IsDUE() || !DUEHang.IsDUE() || !DUEMCA.IsDUE() || SDC.IsDUE() || Masked.IsDUE() {
		t.Fatal("IsDUE wrong")
	}
	for _, c := range []Class{Algebraic, Stencil, NBody, DynProg, AMR} {
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
	for _, s := range []Status{Completed, Crashed, Hung} {
		if s.String() == "" {
			t.Fatal("empty status name")
		}
	}
}
