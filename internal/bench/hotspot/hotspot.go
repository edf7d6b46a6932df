// Package hotspot ports the Rodinia HotSpot benchmark used by the paper: an
// iterative thermal simulation of an architectural floor plan (paper §3.2:
// "memory-bound algorithm as its arithmetic intensity is low").
//
// Each iteration updates every cell of a single-precision temperature grid
// from its four neighbours, the local power dissipation, and the ambient
// sink:
//
//	t' = t + cx·(E + W − 2t) + cy·(N + S − 2t) + cz·(amb − t) + cp·power
//
// The diffusion coefficients and ambient temperature live in corruptible
// constant cells — the paper found HotSpot's SDCs and DUEs concentrate in
// "constant and control variables". The stencil structure is also what gives
// HotSpot its signature reliability behaviour: an injected delta decays
// geometrically (factor 1−2cx−2cy−cz per iteration at the impact point)
// while spreading to neighbours, so errors are wide but strongly attenuated
// — the mechanism behind the paper's Figure 3, where a 0.5 % tolerance
// removes most of HotSpot's SDC FIT.
package hotspot

import (
	"fmt"

	"phirel/internal/bench"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// Config sizes the workload.
type Config struct {
	// Rows, Cols give the grid shape.
	Rows, Cols int
	// Iters is the number of stencil sweeps (one tick each).
	Iters int
	// Workers is the parallel width (rows are partitioned).
	Workers int
}

// DefaultConfig returns the campaign-scale configuration. The iteration
// count is deliberately large relative to the grid so that attenuation —
// not injection magnitude — dominates the relative-error distribution, as
// on the real device where a run spans thousands of sweeps.
func DefaultConfig() Config { return Config{Rows: 64, Cols: 64, Iters: 256, Workers: 4} }

// worker holds per-thread loop control cells.
type worker struct {
	rStart, rEnd, rCur *state.Int
}

// HotSpot implements bench.Benchmark.
type HotSpot struct {
	cfg   Config
	reg   *state.Registry
	tA    *state.F32s // ping
	tB    *state.F32s // pong
	power *state.F32s
	t0    []float32 // pristine initial temperature
	p0    []float32 // pristine power map

	// Simulation constants (region "constant"). The real kernel keeps these
	// in registers; their memory copies are reloaded every sweep, which is
	// when an armed corruption fires.
	cx, cy, cz, cp, amb *state.F32

	// Global control cells.
	iterCur, iterEnd *state.Int

	workers []worker
	final   *state.F32s // buffer holding the last completed sweep
}

// New builds a HotSpot instance with deterministic inputs.
func New(cfg Config, seed uint64) *HotSpot {
	if cfg.Rows <= 2 || cfg.Cols <= 2 || cfg.Iters <= 0 || cfg.Workers <= 0 {
		panic(fmt.Sprintf("hotspot: bad config %+v", cfg))
	}
	h := &HotSpot{cfg: cfg, reg: state.NewRegistry()}
	shape := state.Dims2(cfg.Cols, cfg.Rows)
	h.tA = state.NewF32s("temp0", "matrix", shape)
	h.tB = state.NewF32s("temp1", "matrix", shape)
	h.power = state.NewF32s("power", "matrix", shape)
	r := stats.NewRNG(seed)
	h.t0 = make([]float32, shape.Len())
	h.p0 = make([]float32, shape.Len())
	for i := range h.t0 {
		h.t0[i] = 80 + 10*float32(r.Float64())       // ambient-ish start
		h.p0[i] = float32(r.Float64() * r.Float64()) // skewed power map
	}
	// Stable diffusion coefficients: centre weight 1-2cx-2cy-cz = 0.47.
	h.cx = state.NewF32("cx", "constant", 0.12)
	h.cy = state.NewF32("cy", "constant", 0.12)
	h.cz = state.NewF32("cz", "constant", 0.05)
	h.cp = state.NewF32("cp", "constant", 0.30)
	h.amb = state.NewF32("amb", "constant", 80.0)
	h.iterCur = state.NewInt("iterCur", "control", 0)
	h.iterEnd = state.NewInt("iterEnd", "control", cfg.Iters)
	h.reg.Global().Register(h.tA, h.tB, h.power,
		h.cx, h.cy, h.cz, h.cp, h.amb, h.iterCur, h.iterEnd)
	h.workers = make([]worker, cfg.Workers)
	for w := range h.workers {
		wk := &h.workers[w]
		mk := func(v string) *state.Int {
			c := state.NewInt(fmt.Sprintf("w%d.%s", w, v), "control", 0)
			h.reg.Global().Register(c)
			return c
		}
		wk.rStart, wk.rEnd, wk.rCur = mk("rStart"), mk("rEnd"), mk("rCur")
	}
	return h
}

// Name implements bench.Benchmark.
func (h *HotSpot) Name() string { return "HotSpot" }

// Class implements bench.Benchmark.
func (h *HotSpot) Class() bench.Class { return bench.Stencil }

// Windows implements bench.Benchmark (paper: HotSpot split into 5 windows).
func (h *HotSpot) Windows() int { return 5 }

// Registry implements bench.Benchmark.
func (h *HotSpot) Registry() *state.Registry { return h.reg }

// Reset implements bench.Benchmark.
func (h *HotSpot) Reset() {
	h.reg.PopAll()
	h.reg.DisarmAll()
	copy(h.tA.Data, h.t0)
	for i := range h.tB.Data {
		h.tB.Data[i] = 0
	}
	copy(h.power.Data, h.p0)
	h.cx.Store(0.12)
	h.cy.Store(0.12)
	h.cz.Store(0.05)
	h.cp.Store(0.30)
	h.amb.Store(80.0)
	h.iterCur.Store(0)
	h.iterEnd.Store(h.cfg.Iters)
	for w := range h.workers {
		wk := &h.workers[w]
		wk.rStart.Store(0)
		wk.rEnd.Store(0)
		wk.rCur.Store(0)
	}
	h.final = h.tA
}

// Run implements bench.Benchmark. One tick per sweep.
func (h *HotSpot) Run(ctx *bench.Ctx) {
	rows, cols := h.cfg.Rows, h.cfg.Cols
	src, dst := h.tA, h.tB
	i := ctx.Start()
	if i%2 == 1 { // sweep i reads tA when i is even, tB when odd
		src, dst = dst, src
	}
	for h.iterCur.Store(i); h.iterCur.Load() < h.iterEnd.Load(); h.iterCur.Add(1) {
		ctx.Outer(i)
		i++
		// Publish the live grid before the tick so injections (which fire
		// inside Tick) corrupt state that the coming sweep actually reads.
		h.final = src
		ctx.Tick()
		ctx.Work(int64(rows)*int64(cols) + 1)
		// Reload constants from their (corruptible) memory homes once per
		// sweep, as the real kernel's register reloads would.
		cx, cy, cz, cp, amb := h.cx.Load(), h.cy.Load(), h.cz.Load(), h.cp.Load(), h.amb.Load()
		s, d, p := src.Data, dst.Data, h.power.Data
		// Nothing armed ⇒ nothing can fire mid-sweep (arming is
		// tick-quiescent), so the row cursors may run as plain loops with
		// identical sweeps and section-final cell state.
		fast := !h.reg.AnyArmed()
		ctx.ParallelFor(h.cfg.Workers, rows, func(w, r0, r1 int) {
			wk := &h.workers[w]
			wk.rStart.Store(r0)
			wk.rEnd.Store(r1)
			if fast {
				for r := r0; r < r1; r++ {
					h.sweepRow(s, d, p, r, cx, cy, cz, cp, amb)
				}
				wk.rCur.Store(r1)
				return
			}
			for wk.rCur.Store(wk.rStart.Load()); wk.rCur.Load() < wk.rEnd.Load(); wk.rCur.Add(1) {
				r := wk.rCur.Load()
				// A corrupted cursor leaving this worker's chunk would stomp
				// rows another thread owns; abort like the real run would
				// (r0/r1 are uncorruptible locals, keeping writes disjoint).
				if r < r0 || r >= r1 {
					panic(fmt.Sprintf("hotspot: row %d outside chunk [%d,%d)", r, r0, r1))
				}
				h.sweepRow(s, d, p, r, cx, cy, cz, cp, amb)
			}
		})
		src, dst = dst, src
	}
	h.final = src
}

// Snapshot implements bench.Benchmark: both grids (an injected sweep that
// skips rows leaves the older one's values in place) and the row cursors.
func (h *HotSpot) Snapshot(s *bench.Snap) {
	s.F32s(h.tA.Data)
	s.F32s(h.tB.Data)
	for w := range h.workers {
		wk := &h.workers[w]
		s.Cells(wk.rStart, wk.rEnd, wk.rCur)
	}
}

// sweepRow applies one stencil update to row r; shared by the cell-driven
// and fast row loops so their arithmetic cannot drift apart. The boundary
// columns (whose east/west clamp to the cell itself) are peeled off so the
// interior loop runs branch-free over row-local slices.
func (h *HotSpot) sweepRow(s, d, p []float32, r int, cx, cy, cz, cp, amb float32) {
	rows, cols := h.cfg.Rows, h.cfg.Cols
	up, down := r-1, r+1
	if up < 0 {
		up = 0
	}
	if down >= rows {
		down = rows - 1
	}
	base := r * cols
	sr := s[base : base+cols]
	dr := d[base : base+cols]
	pr := p[base : base+cols]
	nr := s[up*cols : up*cols+cols]
	so := s[down*cols : down*cols+cols]
	t := sr[0] // west clamps to the cell itself
	dr[0] = t +
		cx*(sr[1]+sr[0]-2*t) +
		cy*(nr[0]+so[0]-2*t) +
		cz*(amb-t) +
		cp*pr[0]
	for c := 1; c < cols-1; c++ {
		t = sr[c]
		dr[c] = t +
			cx*(sr[c+1]+sr[c-1]-2*t) +
			cy*(nr[c]+so[c]-2*t) +
			cz*(amb-t) +
			cp*pr[c]
	}
	t = sr[cols-1] // east clamps to the cell itself
	dr[cols-1] = t +
		cx*(sr[cols-1]+sr[cols-2]-2*t) +
		cy*(nr[cols-1]+so[cols-1]-2*t) +
		cz*(amb-t) +
		cp*pr[cols-1]
}

// Output implements bench.Benchmark.
func (h *HotSpot) Output() bench.Output { return h.OutputInto(nil) }

// OutputInto implements bench.OutputInto.
func (h *HotSpot) OutputInto(dst []float64) bench.Output {
	dst = bench.GrowVals(dst, h.final.Len())
	for i, v := range h.final.Data {
		dst[i] = float64(v)
	}
	return bench.Output{Vals: dst, Shape: h.final.Shape}
}

// Temps exposes the live temperature grid: during a run, the buffer the
// current sweep reads from; afterwards, the buffer holding the result.
func (h *HotSpot) Temps() *state.F32s {
	if h.final != nil {
		return h.final
	}
	return h.tA
}

// Constants returns the constant cells (used by the selective-hardening
// example to protect exactly the region the campaign flags).
func (h *HotSpot) Constants() []*state.F32 {
	return []*state.F32{h.cx, h.cy, h.cz, h.cp, h.amb}
}

func init() {
	bench.Register("HotSpot", func(seed uint64) bench.Benchmark {
		return New(DefaultConfig(), seed)
	})
}
