package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// watchdogFired is the sentinel panic value raised when the work budget is
// exhausted; the Runner classifies it as DUE-hang.
type watchdogFired struct {
	work, budget int64
}

// String deliberately omits the exact work counter: its value at overflow
// depends on worker interleaving, and run records must be deterministic.
func (w watchdogFired) String() string {
	return fmt.Sprintf("watchdog: work budget %d exceeded", w.budget)
}

// Ctx is the supervisor context threaded through one benchmark run.
//
// Tick is called only from the orchestrating goroutine at quiescent points
// (no workers running); Work may be called concurrently from workers.
type Ctx struct {
	// tick state (orchestrator goroutine only)
	tick     int
	injectAt int
	inject   func()
	injected bool

	// resume state: the outer iteration Run starts at, and the golden-run
	// checkpoint recorder (nil on every other run).
	start  int
	record *recorder

	// work accounting (atomic; workers touch it)
	work   atomic.Int64
	budget int64 // 0 = unlimited (golden runs)

	// section state for Ctx.ParallelFor (orchestrator sets it up; lanes
	// only touch their own padded slot).
	pool      *pool
	lanes     []laneSlot
	panicsBuf []any
	laneBase  int64 // flushed work at current section start
	wg        sync.WaitGroup
}

// laneSlot is one lane's local work counter, padded to a cache line so
// concurrent lanes never false-share.
type laneSlot struct {
	work int64
	_    [56]byte
}

// newCtx builds a context. injectAt < 0 disables injection; budget <= 0
// disables the watchdog. p may be nil (sections then spawn goroutines).
func newCtx(injectAt int, inject func(), budget int64, p *pool) *Ctx {
	return &Ctx{injectAt: injectAt, inject: inject, budget: budget, pool: p}
}

// Tick marks one instrumentation point. When the scheduled injection tick is
// reached the injection callback fires exactly once, with the benchmark
// quiescent — the analog of CAROL-FI interrupting the program and running
// the flip-script.
func (c *Ctx) Tick() {
	if c.tick == c.injectAt && c.inject != nil && !c.injected {
		c.injected = true
		c.inject()
	}
	c.tick++
}

// Start returns the outer iteration Run must begin at: 0 on a run from
// Reset, the checkpoint's iteration on an injected run the Runner resumed
// (see Outer). Kernels start their outer loop here and skip, when Start is
// positive, any prologue that ticks, accounts work or changes state: its
// effects are already in the restored snapshot and counters.
func (c *Ctx) Start() int { return c.start }

// Outer marks the top of outer iteration i, counted from 0 with a local
// index rather than a corruptible cell. It must be called where the
// benchmark is quiescent, only the global registry frame is live, and
// everything the rest of Run depends on is either restored by Reset or
// passed through Benchmark.Snapshot. On the golden run it may record a
// checkpoint there; on every other run it does nothing.
func (c *Ctx) Outer(i int) {
	if c.record != nil {
		c.record.capture(c, i)
	}
}

// Ticks returns the number of ticks elapsed.
func (c *Ctx) Ticks() int { return c.tick }

// Injected reports whether the scheduled injection has fired.
func (c *Ctx) Injected() bool { return c.injected }

// Work accounts n units of benchmark work (typically inner-loop trips).
// When the cumulative work exceeds the budget it panics with the watchdog
// sentinel, making hangs deterministic instead of wall-clock dependent.
//
// Idiom: reserve budget *before* entering any loop whose trip count derives
// from a corruptible cell (ctx.Work(int64(bound)); for i := 0; i < bound ...)
// — accounting after the loop would let a corrupted bound spin forever
// before the watchdog sees it.
func (c *Ctx) Work(n int64) {
	w := c.work.Add(n)
	if c.budget > 0 && w > c.budget {
		panic(watchdogFired{work: w, budget: c.budget})
	}
}

// WorkDone returns the cumulative accounted work.
func (c *Ctx) WorkDone() int64 { return c.work.Load() }

// WorkLane is the lane-local form of Work for bodies running inside
// Ctx.ParallelFor: it accumulates into the lane's padded counter instead of
// the shared atomic, and checks the budget against the work flushed before
// the section plus this lane's own contribution. The counters are flushed
// into the shared total when the section ends (see ParallelFor), so
// WorkDone is unchanged; the per-lane check keeps the reserve-before-loop
// idiom prompt (a corrupted bound still trips the watchdog at the reserve),
// and — unlike the shared atomic it replaces — its trip decision never
// depends on how concurrent lanes interleave.
func (c *Ctx) WorkLane(w int, n int64) {
	s := &c.lanes[w]
	s.work += n
	if c.budget > 0 && c.laneBase+s.work > c.budget {
		panic(watchdogFired{work: c.laneBase + s.work, budget: c.budget})
	}
}

// capturedPanic carries a worker panic to the orchestrator.
type capturedPanic struct {
	val any
}

// ParallelFor is the pooled form of the package-level ParallelFor: chunks
// run on the Runner's persistent lane goroutines instead of freshly spawned
// ones, lane 0 runs on the calling (orchestrator) goroutine, and bodies may
// account work through WorkLane. Lane-local work is flushed into the shared
// total when the section ends — even when a body panics — so WorkDone and
// the golden work budget are identical to the unpooled path.
//
// Panic semantics match the package-level function: the lowest panicking
// lane wins and is re-raised wrapped in capturedPanic after all lanes have
// stopped. When no lane panicked but the flushed total exceeds the budget
// (cross-lane accumulation that no single lane's WorkLane check could see),
// the watchdog fires at the section boundary.
func (c *Ctx) ParallelFor(workers, n int, body func(worker, start, end int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if len(c.lanes) < workers {
		c.lanes = make([]laneSlot, workers)
		c.panicsBuf = make([]any, workers)
	} else {
		for w := 0; w < workers; w++ {
			c.lanes[w].work = 0
			c.panicsBuf[w] = nil
		}
	}
	c.laneBase = c.work.Load()
	finished := false
	defer func() {
		var total int64
		for w := 0; w < workers; w++ {
			total += c.lanes[w].work
		}
		c.work.Add(total)
		if finished && c.budget > 0 && c.work.Load() > c.budget {
			panic(watchdogFired{work: c.work.Load(), budget: c.budget})
		}
	}()
	if workers == 1 || n == 1 {
		body(0, 0, n)
		finished = true
		return
	}
	if c.pool != nil {
		c.pool.grow(workers - 1)
	}
	chunk := (n + workers - 1) / workers
	for w := 1; w < workers; w++ {
		start := w * chunk
		end := start + chunk
		if end > n {
			end = n
		}
		if start >= end {
			break
		}
		c.wg.Add(1)
		t := poolTask{body: body, w: w, start: start, end: end, wg: &c.wg, panics: c.panicsBuf}
		if c.pool != nil {
			c.pool.lanes[w-1] <- t
		} else {
			go runTask(t)
		}
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				c.panicsBuf[0] = r
			}
		}()
		body(0, 0, chunk)
	}()
	c.wg.Wait()
	for w := 0; w < workers; w++ {
		if r := c.panicsBuf[w]; r != nil {
			panic(capturedPanic{val: r})
		}
	}
	finished = true
}

// ParallelFor runs body over [0,n) split into contiguous chunks, one per
// worker goroutine, and blocks until all complete. It is the OpenMP
// `parallel for (static)` analog the ported benchmarks use.
//
// A panic inside any worker (index error from a corrupted bound, watchdog,
// explicit invariant) is captured and re-raised in the caller after all
// workers have stopped, so the supervisor sees it on the orchestrating
// goroutine and no goroutines leak. When several lanes panic in the same
// section, the lowest lane index wins — a scheduling race here would leak
// into the recorded PanicMsg and break artifact byte-identity.
func ParallelFor(workers, n int, body func(worker, start, end int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		body(0, 0, n)
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	panics := make([]any, workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		end := start + chunk
		if end > n {
			end = n
		}
		if start >= end {
			break
		}
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			body(w, start, end)
		}(w, start, end)
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(capturedPanic{val: r})
		}
	}
}
