package bench_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"phirel/internal/bench"
	"phirel/internal/bench/all"
	"phirel/internal/fault"
	"phirel/internal/state"
	"phirel/internal/stats"
)

// injection is what one injected run observed: a fingerprint of every
// live site at the injection tick, and its corruption.
type injection struct {
	state  uint64
	fired  bool
	report state.Report
}

// fingerprint hashes the name and value bits of every live site, so state
// no output or report happens to expose (stale scratch past a live count,
// say) still has to match.
func fingerprint(reg *state.Registry) uint64 {
	h := fnv.New64a()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	for _, s := range reg.Live() {
		h.Write([]byte(s.Name()))
		switch v := s.(type) {
		case *state.Int:
			put(uint64(v.Load()))
		case *state.F64:
			put(math.Float64bits(v.Load()))
		case *state.F32:
			put(uint64(math.Float32bits(v.Load())))
		case *state.Ints:
			for _, x := range v.Data {
				put(uint64(x))
			}
		case *state.I32s:
			for _, x := range v.Data {
				put(uint64(x))
			}
		case *state.F64s:
			for _, x := range v.Data {
				put(math.Float64bits(x))
			}
		case *state.F32s:
			for _, x := range v.Data {
				put(uint64(math.Float32bits(x)))
			}
		default:
			panic(fmt.Sprintf("fingerprint: unknown site type %T", s))
		}
	}
	return h.Sum64()
}

// injectAt runs one injected run through run. Every random choice of the
// inject callback comes from an RNG seeded with seed, so two runs at the
// same seed make the same choices. An immediate corruption lands in any
// live site at the tick; an armed one is deferred on a scalar cell by up
// to 1024 loads, as the campaign injector does.
func injectAt(run func(int, func()) bench.RawResult, b bench.Benchmark, tick int, seed uint64, m fault.Model, armed bool) (bench.RawResult, injection) {
	var (
		got     injection
		pending *state.Deferred
	)
	res := run(tick, func() {
		rng := stats.NewRNG(seed)
		reg := b.Registry()
		got.state = fingerprint(reg)
		if !armed {
			got.fired, got.report = true, reg.Pick(rng, state.ByVariable).Corrupt(rng, m)
			return
		}
		var cells []state.Armable
		for _, s := range reg.Live() {
			if a, ok := s.(state.Armable); ok {
				cells = append(cells, a)
			}
		}
		delay := 0
		if rng.Bernoulli(0.75) {
			delay = rng.Intn(1024)
		}
		pending = cells[rng.Intn(len(cells))].Arm(delay, m, rng.Split())
	})
	if pending != nil && pending.Fired {
		got.fired, got.report = true, pending.Report
	}
	res.Output = res.Output.Clone() // the runner reuses its output buffer
	return res, got
}

// sameResult compares every RawResult field; output values compare by bits
// except that any NaN equals any NaN.
func sameResult(a, b bench.RawResult) error {
	if a.Status != b.Status || a.PanicMsg != b.PanicMsg || a.Ticks != b.Ticks || a.Work != b.Work || a.Injected != b.Injected {
		return fmt.Errorf("status %v %q ticks %d work %d injected %v, want %v %q ticks %d work %d injected %v",
			b.Status, b.PanicMsg, b.Ticks, b.Work, b.Injected, a.Status, a.PanicMsg, a.Ticks, a.Work, a.Injected)
	}
	if len(a.Output.Vals) != len(b.Output.Vals) || a.Output.Shape != b.Output.Shape || a.Output.Exact != b.Output.Exact {
		return fmt.Errorf("output shape %v (%d values), want %v (%d values)", b.Output.Shape, len(b.Output.Vals), a.Output.Shape, len(a.Output.Vals))
	}
	for i, v := range a.Output.Vals {
		w := b.Output.Vals[i]
		if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
			return fmt.Errorf("output[%d] = %v, want %v", i, w, v)
		}
	}
	return nil
}

// TestResumeMatchesReplay is the oracle for golden-prefix checkpoints: an
// injected run resumed from the latest checkpoint at or before its tick
// must be indistinguishable from a replay of the whole run from Reset, for
// every kernel, fault model and corruption timing. Under -short it checks
// a seeded sample of ticks plus every checkpoint tick and the tick before
// it; otherwise every tick.
func TestResumeMatchesReplay(t *testing.T) {
	for _, name := range all.Suite {
		t.Run(name, func(t *testing.T) {
			b, err := bench.New(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			r, err := bench.NewRunner(b)
			if err != nil {
				t.Fatal(err)
			}
			cps, bytes := r.CheckpointTicks()
			if len(cps) == 0 {
				t.Fatal("the golden run recorded no checkpoints")
			}
			if bytes > bench.CheckpointCap {
				t.Fatalf("checkpoints hold %d bytes, over the %d-byte cap", bytes, bench.CheckpointCap)
			}
			t.Logf("%d checkpoints at ticks %v of %d, %d bytes", len(cps), cps, r.TotalTicks, bytes)

			var ticks []int
			if testing.Short() {
				rng := stats.NewRNG(0x5eed)
				for i := 0; i < 12; i++ {
					ticks = append(ticks, rng.Intn(r.TotalTicks))
				}
				for _, c := range cps {
					ticks = append(ticks, c-1, c)
				}
			} else {
				for tick := 0; tick < r.TotalTicks; tick++ {
					ticks = append(ticks, tick)
				}
			}
			for _, tick := range ticks {
				for mi, m := range fault.Models {
					for ai, armed := range []bool{false, true} {
						seed := stats.Mix64(uint64(tick), uint64(2*mi+ai))
						want, wantInj := injectAt(r.ReplayInjected, b, tick, seed, m, armed)
						got, gotInj := injectAt(r.RunInjected, b, tick, seed, m, armed)
						if err := sameResult(want, got); err != nil {
							t.Fatalf("tick %d %v armed=%v: %v", tick, m, armed, err)
						}
						if gotInj != wantInj {
							t.Fatalf("tick %d %v armed=%v: injection %+v, want %+v", tick, m, armed, gotInj, wantInj)
						}
					}
				}
			}
		})
	}
}
