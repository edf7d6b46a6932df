package bench

import (
	"fmt"
	"slices"
	"sort"

	"phirel/internal/state"
)

// checkpointCap bounds the snapshot bytes one Runner retains. The golden
// run records at every outer iteration that is a multiple of a stride;
// whenever the next snapshot would push the retained total past the cap
// the stride doubles and the checkpoints off the new stride are dropped,
// so the retained set never exceeds the cap during capture either.
const checkpointCap = 256 << 10

// Snap carries the state a Benchmark's Run changes, as of the top of outer
// iteration Iter. The same Benchmark.Snapshot method serves both
// directions: the Runner calls it with a recording Snap on the golden run
// and with a restoring one, after Reset, to resume an injected run. In
// restore mode every accessor copies the recorded values back in the
// order they were recorded, so the two directions cannot drift apart.
type Snap struct {
	iter    int
	restore bool
	f64     []float64
	f32     []float32
	i32     []int32
	ints    []int
}

// Iter returns the outer iteration the snapshot belongs to, for kernels
// whose changed state is a prefix that grows with the iteration.
func (s *Snap) Iter() int { return s.iter }

// F64s records or restores v.
func (s *Snap) F64s(v []float64) { s.f64 = pass(s.f64, v, s.restore) }

// F32s records or restores v.
func (s *Snap) F32s(v []float32) { s.f32 = pass(s.f32, v, s.restore) }

// I32s records or restores v.
func (s *Snap) I32s(v []int32) { s.i32 = pass(s.i32, v, s.restore) }

// Ints records or restores v.
func (s *Snap) Ints(v []int) { s.ints = pass(s.ints, v, s.restore) }

// Int records or restores one plain integer (kernel bookkeeping that is
// not an injection site).
func (s *Snap) Int(p *int) {
	v := [1]int{*p}
	s.Ints(v[:])
	*p = v[0]
}

// Cells records or restores the values of scalar control cells. Nothing is
// armed at a checkpoint or after Reset, so their Loads fire nothing.
func (s *Snap) Cells(cells ...*state.Int) {
	for _, c := range cells {
		v := c.Load()
		s.Int(&v)
		c.Store(v)
	}
}

// pass appends v to buf when recording, or fills v from the head of buf and
// returns the rest when restoring.
func pass[T any](buf, v []T, restore bool) []T {
	if !restore {
		return append(buf, v...)
	}
	if len(buf) < len(v) {
		panic("bench: snapshot restore reads past the recorded state")
	}
	return buf[copy(v, buf):]
}

// bytes returns the recorded footprint.
func (s *Snap) bytes() int {
	return 8*len(s.f64) + 4*len(s.f32) + 4*len(s.i32) + 8*len(s.ints)
}

// checkpoint is the golden state at the top of one outer iteration: the
// iteration, the tick and flushed work counters, and the benchmark's
// snapshot.
type checkpoint struct {
	iter int
	tick int
	work int64
	snap Snap
}

// restore puts b and ctx back into the checkpoint's state. b must have been
// Reset: the snapshot holds only what the golden run changes.
func (cp *checkpoint) restore(b Benchmark, ctx *Ctx) {
	s := cp.snap // a copy: restoring consumes the slice heads
	s.restore = true
	b.Snapshot(&s)
	if s.bytes() != 0 {
		panic(fmt.Sprintf("bench: %s restored %d fewer snapshot bytes than it recorded", b.Name(), s.bytes()))
	}
	ctx.start = cp.iter
	ctx.tick = cp.tick
	ctx.work.Store(cp.work)
}

// recorder captures checkpoints during a Runner's golden run.
type recorder struct {
	b       Benchmark
	stride  int
	bytes   int
	cps     []checkpoint
	scratch Snap
}

// capture is Ctx.Outer's golden-run hook.
func (r *recorder) capture(ctx *Ctx, i int) {
	// Iteration 0 is the Reset state itself: no checkpoint needed.
	if i <= 0 || i%r.stride != 0 {
		return
	}
	// Only the global frame may be live, so that the injector's Pick sees
	// the same frames on a resumed run as on a full replay.
	if d := r.b.Registry().Depth(); d != 1 {
		panic(fmt.Sprintf("bench: %s checkpoint at iteration %d with %d registry frames live", r.b.Name(), i, d))
	}
	s := &r.scratch
	s.iter = i
	s.f64, s.f32, s.i32, s.ints = s.f64[:0], s.f32[:0], s.i32[:0], s.ints[:0]
	r.b.Snapshot(s)
	n := s.bytes()
	for r.bytes+n > checkpointCap {
		r.stride *= 2
		r.cps = slices.DeleteFunc(r.cps, func(cp checkpoint) bool { return cp.iter%r.stride != 0 })
		r.bytes = 0
		for _, cp := range r.cps {
			r.bytes += cp.snap.bytes()
		}
		if i%r.stride != 0 {
			return
		}
	}
	r.cps = append(r.cps, checkpoint{iter: i, tick: ctx.tick, work: ctx.work.Load(), snap: Snap{
		iter: i,
		f64:  slices.Clone(s.f64),
		f32:  slices.Clone(s.f32),
		i32:  slices.Clone(s.i32),
		ints: slices.Clone(s.ints),
	}})
	r.bytes += n
}

// resumePoint returns the latest checkpoint at or before tick, or nil when
// the run must start from Reset.
func (r *Runner) resumePoint(tick int) *checkpoint {
	i := sort.Search(len(r.checkpoints), func(i int) bool { return r.checkpoints[i].tick > tick })
	if i == 0 {
		return nil
	}
	return &r.checkpoints[i-1]
}
