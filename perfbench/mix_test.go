package main

import (
	"testing"
)

func missSequence(seed uint64, client, n int) []question {
	m := newMissMix(seed, client)
	out := make([]question, n)
	for i := range out {
		out[i] = m.next()
	}
	return out
}

func TestMissMixSeeded(t *testing.T) {
	a, b := missSequence(7, 0, 80), missSequence(7, 0, 80)
	for i := range a {
		if a[i].Spec.CanonicalHash() != b[i].Spec.CanonicalHash() || a[i].Grown != b[i].Grown {
			t.Fatalf("request %d differs between two mixes of seed 7", i)
		}
	}
	other := missSequence(8, 0, 80)
	same := 0
	for i := range a {
		if a[i].Spec.CanonicalHash() == other[i].Spec.CanonicalHash() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 7 and 8 share %d requests", same)
	}
}

func TestMissMixEveryRequestComputes(t *testing.T) {
	seen := map[string]bool{}
	asked := map[string]question{}
	grown := 0
	for client := 0; client < 2; client++ {
		seq := missSequence(3, client, 120)
		for i, q := range seq {
			h := q.Spec.CanonicalHash()
			if seen[h] {
				t.Fatalf("client %d request %d repeats sweep %.12s: it would be a cache hit", client, i, h)
			}
			seen[h] = true
			asked[h] = q
			if !q.Grown {
				continue
			}
			grown++
			prev, ok := asked[q.Prefix]
			if !ok || i == 0 || seq[i-1].Spec.CanonicalHash() != q.Prefix {
				t.Fatalf("grown request %d does not re-ask the client's previous question", i)
			}
			if q.Spec.N != 2*prev.Spec.N || q.Spec.CanonicalHashBase() != prev.Spec.CanonicalHashBase() {
				t.Fatalf("grown request %d is not its prefix at 2×N", i)
			}
			if q.PrefixTrials != trials(prev.Spec) {
				t.Fatalf("grown request %d: prefix trials %d, want %d", i, q.PrefixTrials, trials(prev.Spec))
			}
		}
	}
	// Half the sizes of every block grow: 12 re-asks per 36 requests, so
	// each client's 120 requests hold 3 full blocks (36 re-asks) and at
	// most 6 more.
	if grown < 2*36 || grown > 2*42 {
		t.Fatalf("%d grown re-asks in 240 requests, want about a third", grown)
	}
}

func TestShapeBlockStratified(t *testing.T) {
	m := newMissMix(1, 0)
	block := shapeBlock(m.rng, m.rng, missMaxN, missBeamShare)
	if len(block) != 24 {
		t.Fatalf("block of %d shapes, want 6×4", len(block))
	}
	sizes := map[[2]int]bool{}
	uses := map[string]int{}
	beams := 0
	for _, s := range block {
		sizes[[2]int{len(s.benchmarks), len(s.models)}] = true
		for _, b := range s.benchmarks {
			uses[b]++
		}
		if len(s.beamBenchmarks) > 0 {
			beams++
		}
		if s.n < 1 || s.n > missMaxN {
			t.Fatalf("shape N %d outside [1, %d]", s.n, missMaxN)
		}
		if q := s.question(1); len(q.Cells()) != len(s.benchmarks)*len(s.models) {
			t.Fatalf("shape %d×%d has %d cells", len(s.benchmarks), len(s.models), len(q.Cells()))
		}
	}
	grows := 0
	for _, s := range block {
		if s.grow {
			grows++
		}
	}
	if len(sizes) != 24 || beams != 6 || grows != 12 {
		t.Fatalf("block covers %d grid sizes with %d beam and %d growing shapes, want 24, 6 and 12", len(sizes), beams, grows)
	}
	// 84 benchmark slots round-robin over 6 benchmarks: 14 each.
	for b, n := range uses {
		if n != 14 {
			t.Errorf("benchmark %s named %d times in a block, want 14", b, n)
		}
	}
}

func TestHitMixSeeded(t *testing.T) {
	a, b := newHitMix(5, 1, 20, 40), newHitMix(5, 1, 20, 40)
	hits := make([]int, 60)
	for i := 0; i < 5000; i++ {
		ia, oa := a.next()
		ib, ob := b.next()
		if ia != ib || oa != ob {
			t.Fatalf("request %d differs between two mixes of seed 5", i)
		}
		hits[ia]++
	}
	core := 0
	for i := 0; i < 20; i++ {
		core += hits[i]
	}
	if core < 5000/2 {
		t.Fatalf("core questions drew %d of 5000 requests; the Zipf head should dominate", core)
	}
	pop := hitPopulation(5, 20, 40)
	seen := map[string]bool{}
	for _, s := range pop {
		if seen[s.CanonicalHash()] {
			t.Fatal("population repeats a sweep")
		}
		seen[s.CanonicalHash()] = true
	}
	// The core's sizes by popularity rank are the same for every seed.
	for i, s := range hitPopulation(6, 20, 40)[:20] {
		if trials(s) != trials(pop[i]) || len(s.Cells()) != len(pop[i].Cells()) {
			t.Fatalf("core question %d differs in size between seeds", i)
		}
	}
	for _, s := range pop[20:] {
		if len(s.Cells()) != 1 || s.BeamRuns != 0 {
			t.Fatalf("tail question has %d cells", len(s.Cells()))
		}
	}
}
