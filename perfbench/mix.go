package main

import (
	"math"
	"sort"

	"phirel/internal/bench"
	"phirel/internal/fault"
	"phirel/internal/fleet"
	"phirel/internal/phi"
	"phirel/internal/stats"
)

// Seeds reach the program only through the specs generated here: every
// spec field derives from the benchmark's --seed.

// gridSpec is the grid-batch question: the default grid (every benchmark
// × all four fault models) plus the default beam grid with the ECC-off
// (A2) arm, at n injection trials and beamRuns beam runs per cell.
func gridSpec(seed uint64, workers, n, beamRuns int) fleet.Sweep {
	return fleet.Sweep{
		N:               n,
		BeamRuns:        beamRuns,
		BeamECCAblation: true,
		Seed:            stats.Mix64(seed, 0x67726964), // "grid"
		BenchSeed:       1,
		Workers:         workers,
	}
}

// trials is a spec's cell-weighted trial count.
func trials(s fleet.Sweep) int {
	return len(s.Cells())*s.N + len(s.BeamCells())*s.BeamRuns
}

// question is one serve request's spec. A grown question re-asks an
// earlier one at twice its trial counts, so the server answers it as a
// partial overlap around the earlier artifact (Prefix).
type question struct {
	Spec         fleet.Sweep
	Grown        bool
	Prefix       string
	PrefixTrials int
}

// shape is a fresh question without its seed: which benchmarks and fault
// models it sweeps at n trials per cell, and its beam cells if any.
type shape struct {
	benchmarks     []string
	models         []fault.Model
	n              int
	beamBenchmarks []string
	ablation       bool
	// grow marks a question re-asked at 2×N right after it is answered.
	grow bool
}

// shapeBlock is every grid size once — 1–6 benchmarks × 1–4 models —
// with N cycling through [1, maxN], a beamShare of them carrying beam
// cells and half of them (every other size) marked to grow, shuffled by
// order. The benchmarks and models a shape names are
// taken round-robin from a seeded starting point, so every benchmark and
// model appears about equally often in a block. Drawing questions a
// stratified block at a time keeps the mix's total cost nearly the same
// for every seed.
func shapeBlock(rng, order *stats.RNG, maxN int, beamShare float64) []shape {
	names, beamNames := bench.Names(), beamBenchmarks()
	nextB, nextM, nextBeam := rng.Intn(len(names)), rng.Intn(len(fault.Models)), rng.Intn(len(beamNames))
	beamEvery := int(math.Round(1 / beamShare))
	var out []shape
	for b := 1; b <= len(names); b++ {
		for m := 1; m <= len(fault.Models); m++ {
			i := len(out)
			sh := shape{n: 1 + i%maxN, grow: (b+m)%2 == 0}
			for j := 0; j < b; j++ {
				sh.benchmarks = append(sh.benchmarks, names[(nextB+j)%len(names)])
			}
			nextB += b
			for j := 0; j < m; j++ {
				sh.models = append(sh.models, fault.Models[(nextM+j)%len(fault.Models)])
			}
			nextM += m
			if i%beamEvery == 0 {
				k := 1 + (i/beamEvery)%3
				for j := 0; j < k; j++ {
					sh.beamBenchmarks = append(sh.beamBenchmarks, beamNames[(nextBeam+j)%len(beamNames)])
				}
				nextBeam += k
				sh.ablation = (i/beamEvery)%2 == 0
			}
			out = append(out, sh)
		}
	}
	order.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// question is the shape's spec under master seed seed, which makes its
// hash distinct. Lists are kept in registry order.
func (sh shape) question(seed uint64) fleet.Sweep {
	s := fleet.Sweep{
		Benchmarks: sortedNames(sh.benchmarks),
		Models:     append([]fault.Model(nil), sh.models...),
		N:          sh.n,
		Seed:       seed,
		BenchSeed:  1,
		Workers:    1,
	}
	sort.Slice(s.Models, func(i, j int) bool { return s.Models[i] < s.Models[j] })
	if len(sh.beamBenchmarks) > 0 {
		s.BeamRuns = beamRuns
		s.BeamBenchmarks = sortedNames(sh.beamBenchmarks)
		s.BeamECCAblation = sh.ablation
	}
	return s
}

// beamRuns is the per-cell run count of a question's beam cells.
const beamRuns = 4

func sortedNames(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// beamBenchmarks lists the registered benchmarks with a beam profile.
func beamBenchmarks() []string {
	var out []string
	for _, b := range bench.Names() {
		if _, err := phi.ProfileFor(b); err == nil {
			out = append(out, b)
		}
	}
	return out
}

// missMix is one serve-miss client's request generator. Its sequence is a
// function of (seed, client) alone. Fresh questions come a stratified
// block at a time; a question whose shape is marked to grow is re-asked
// at 2×N by the client's next request, which the closed loop sends only
// after the first answer landed, so every request computes: a fresh
// question is a miss, a grown one a partial overlap.
type missMix struct {
	rng    *stats.RNG
	seed   uint64
	client int
	k      int
	shapes []shape // rest of the current block
	grow   *question
}

const (
	missMaxN = 3
	// missBeamShare is the share of fresh questions with beam cells.
	missBeamShare = 0.25
)

func newMissMix(seed uint64, client int) *missMix {
	return &missMix{rng: stats.NewRNG(stats.Mix64(seed, uint64(client)+1)), seed: seed, client: client}
}

func (m *missMix) next() question {
	m.k++
	if g := m.grow; g != nil {
		m.grow = nil
		return *g
	}
	if len(m.shapes) == 0 {
		m.shapes = shapeBlock(m.rng, m.rng, missMaxN, missBeamShare)
	}
	sh := m.shapes[0]
	m.shapes = m.shapes[1:]
	s := sh.question(stats.Mix64(m.seed, uint64(m.client)<<32|uint64(m.k)))
	if sh.grow {
		g := s
		g.N *= 2
		g.BeamRuns *= 2
		m.grow = &question{Spec: g, Grown: true, Prefix: s.CanonicalHash(), PrefixTrials: trials(s)}
	}
	return question{Spec: s}
}

// hitOp is one serve-hit request kind.
type hitOp int

const (
	opPost hitOp = iota
	opStatus
	opResult
	opResult304
	opResultStale // If-None-Match with another sweep's ETag: must be 200
	opFigures
	opMonitor
	numHitOps
)

var hitOpNames = [numHitOps]string{"post", "status", "result", "result_304", "result_stale_etag", "figures", "monitor"}

func (o hitOp) String() string { return hitOpNames[o] }

// hitOpWeights is the serve-hit request mix. It is an assumption, not
// taken from a recorded client trace: POST-heavy, as clients re-ask.
var hitOpWeights = []float64{
	opPost: 0.30, opStatus: 0.15, opResult: 0.20, opResult304: 0.10,
	opResultStale: 0.05, opFigures: 0.10, opMonitor: 0.10,
}

// hitMix is one serve-hit client's generator: Zipf-skewed question choice
// over the population and a weighted op choice. Popularity follows
// population order for the core, so the question at each rank has the
// same size under every seed (hitPopulation fixes the core's shape
// order), and the tail follows in a seeded order after it, so its first
// touches keep arriving through the window.
type hitMix struct {
	rng  *stats.RNG
	rank []int
	zipf []float64
}

const (
	// hitZipfS is the Zipf exponent of question popularity, an
	// assumption (the common web-cache value), not a measured one.
	hitZipfS = 1.1
	// hitShapeOrder seeds the one fixed shape order of the core.
	hitShapeOrder = 0x686974 // "hit"
)

func newHitMix(seed uint64, client, core, tail int) *hitMix {
	order := stats.NewRNG(stats.Mix64(seed, 0x7a697066)) // shared by all clients
	rank := make([]int, 0, core+tail)
	for i := 0; i < core; i++ {
		rank = append(rank, i)
	}
	for _, i := range order.Perm(tail) {
		rank = append(rank, core+i)
	}
	zipf := make([]float64, len(rank))
	for i := range zipf {
		zipf[i] = 1 / math.Pow(float64(i+1), hitZipfS)
	}
	return &hitMix{rng: stats.NewRNG(stats.Mix64(seed, uint64(client)+101)), rank: rank, zipf: zipf}
}

// next returns the population index and op of the next request.
func (h *hitMix) next() (int, hitOp) {
	return h.rank[h.rng.PickWeighted(h.zipf)], hitOp(h.rng.PickWeighted(hitOpWeights))
}

// hitPopulation draws the serve-hit question population: core varied
// questions at N in [1, 2], then tail one-benchmark, one-model questions
// at N = 1 (cheap to build, rarely asked). The core's shape order is the
// same for every seed (hitShapeOrder), so the popularity-weighted
// artifact size is too; which benchmarks, models and seeds each question
// names come from seed.
func hitPopulation(seed uint64, core, tail int) []fleet.Sweep {
	rng := stats.NewRNG(stats.Mix64(seed, 0x706f70)) // "pop"
	order := stats.NewRNG(hitShapeOrder)
	names := bench.Names()
	out := make([]fleet.Sweep, 0, core+tail)
	var shapes []shape
	for i := 0; i < core+tail; i++ {
		qseed := stats.Mix64(seed, uint64(i)+1<<40)
		if i < core {
			if len(shapes) == 0 {
				shapes = shapeBlock(rng, order, 2, missBeamShare)
			}
			out = append(out, shapes[0].question(qseed))
			shapes = shapes[1:]
			continue
		}
		out = append(out, fleet.Sweep{
			Benchmarks: []string{names[rng.Intn(len(names))]},
			Models:     []fault.Model{fault.Models[rng.Intn(len(fault.Models))]},
			N:          1, Seed: qseed, BenchSeed: 1, Workers: 1,
		})
	}
	return out
}
