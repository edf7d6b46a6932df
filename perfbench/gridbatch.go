package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"phirel/internal/beam"
	"phirel/internal/core"
	"phirel/internal/fault"
	"phirel/internal/fleet"
	"phirel/internal/phi"
)

// grid-batch: the paper's full evaluation as one offline fleet.Sweep at
// the trial counts of the repository's `make sweep` (SWEEP_FLAGS: -n 200
// -beam-runs 1000 -beam-ecc-ablation), run in-process by Sweep.Run at
// Workers = nproc. Each repetition ("request") is that whole job: Sweep.Run
// plus the artifact encode that phi-bench -sweep performs. At these counts
// one job takes seconds, so a window holds only a few repetitions and the
// request percentiles are taken over them (the sample count is printed).

func runGridBatch(env *runEnv, size workloadSize) (*workloadResult, error) {
	out := newWorkloadResult()
	spec := gridSpec(env.seed, env.clients, size.gridN, size.gridBeamRuns)
	hash := spec.CanonicalHash()
	dir := filepath.Join(env.workDir, fmt.Sprintf("grid-batch-%d", env.nextDir()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	setups, err := coldGrid(env, spec, dir, size.setupHalf())
	if err != nil {
		return nil, err
	}

	// Every repetition of the spec in this process, in this pass or an
	// earlier one, must encode to the bytes of its first.
	if env.gridArtifacts == nil {
		env.gridArtifacts = map[string][]byte{}
	}
	first, seen := env.gridArtifacts[hash]
	ctx := context.Background()
	var lat []float64
	meter := startMeter()
	// One caller runs whole jobs back to back. Another job starts only if
	// it is expected to end within the window, as long as the last one
	// took; at least one job runs.
	window := time.Duration(size.seconds * float64(time.Second))
	var last time.Duration
	for i := 0; i == 0 || time.Since(meter.start)+last <= window; i++ {
		out.attempted++
		t0 := time.Now()
		res, err := spec.Run(ctx)
		t1 := time.Now()
		var buf bytes.Buffer
		if err == nil {
			err = res.WriteJSON(&buf)
		}
		t2 := time.Now()
		last = t2.Sub(t0)
		if err != nil {
			out.fail(fmt.Errorf("grid-batch repetition %d: %w", i+1, err))
			break
		}
		root := env.rec.add("grid.request", "", 0, t0, t2)
		env.rec.add("fleet.run", "", root, t0, t1)
		env.rec.add("fleet.encode", "", root, t1, t2)
		lat = append(lat, ms(last))
		if first == nil {
			first = buf.Bytes()
			env.gridArtifacts[hash] = first
		} else if !bytes.Equal(first, buf.Bytes()) {
			out.fail(fmt.Errorf("grid-batch repetition %d: artifact bytes differ from the spec's first repetition", i+1))
		}
	}
	meter.stop()
	if err := out.peakRSS(meter); err != nil {
		return nil, err
	}
	if len(lat) == 0 {
		out.setup(setups, nil)
		return out, nil
	}

	// Oracle outside the window, once per spec and process: the spec run
	// as 2 shards and merged must give the same bytes.
	if !seen {
		out.attempted++
		if err := sameAsTwoShards(spec, first); err != nil {
			out.fail(fmt.Errorf("grid-batch 2-shard oracle: %w", err))
		}
	}
	after, err := coldGrid(env, spec, dir, size.setupHalf())
	if err != nil {
		return nil, err
	}
	out.setup(setups, after)

	n := float64(trials(spec))
	reqs := float64(len(lat))
	s := sortedCopy(lat)
	out.meter = meter
	out.reqPerS = reqs / meter.wall.Seconds()
	out.e2e["req_p50_ms"] = median(lat)
	out.e2e["req_p90_ms"] = s[nearestRank(len(s), 0.9)-1]
	out.e2e["req_per_s"] = out.reqPerS
	out.e2e["cpu_ms_per_req"] = ms(meter.cpu) / reqs
	out.e2e["trials_per_s"] = n * reqs / meter.wall.Seconds()
	out.e2e["cpu_ms_per_trial"] = ms(meter.cpu) / (n * reqs)
	out.note("grid-batch: %d repetitions of one %d+%d-cell job (N=%d, %d beam runs, %d trials) at Workers=%d in %.2fs, artifact %d bytes; p50 and p90 over %d samples",
		len(lat), len(spec.Cells()), len(spec.BeamCells()), spec.N, spec.BeamRuns, int(n), spec.Workers,
		meter.wall.Seconds(), len(first), len(lat))

	if size.traced {
		if err := gridLayers(out, env, spec); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// coldGrid times a fresh phi-bench process answering the grid at one
// trial per cell: process start, package init, every cell's benchmark
// construction and golden run, and the artifact write — the fixed cost a
// batch pays before its trial count matters.
func coldGrid(env *runEnv, spec fleet.Sweep, dir string, size workloadSize) ([]float64, error) {
	cold := spec
	cold.N, cold.BeamRuns = 1, 1
	specPath := filepath.Join(dir, "cold-spec.json")
	if err := cold.WriteSpecFile(specPath); err != nil {
		return nil, err
	}
	outPath := filepath.Join(dir, "cold.json")
	return repeatSetup(size, func() (time.Duration, error) {
		os.Remove(outPath)
		cmd := exec.Command(env.workerBin, "-sweep", "-spec", specPath, "-out", outPath)
		t := time.Now()
		msg, err := cmd.CombinedOutput()
		d := time.Since(t)
		if err != nil {
			return 0, fmt.Errorf("cold phi-bench: %w: %s", err, msg)
		}
		res, err := fleet.ReadFile(outPath)
		if err != nil {
			return 0, err
		}
		if res.Spec.CanonicalHash() != cold.CanonicalHash() {
			return 0, fmt.Errorf("cold phi-bench answered another spec")
		}
		return d, nil
	})
}

// sameAsTwoShards checks that RunShard 1/2 and 2/2 merged by
// MergeSweepResults encode to want.
func sameAsTwoShards(spec fleet.Sweep, want []byte) error {
	ctx := context.Background()
	a, err := spec.RunShard(ctx, 0, 2)
	if err != nil {
		return err
	}
	b, err := spec.RunShard(ctx, 1, 2)
	if err != nil {
		return err
	}
	merged, err := fleet.MergeSweepResults(a, b)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := merged.WriteJSON(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), want) {
		return fmt.Errorf("merged shards (%d bytes) differ from the monolithic artifact (%d bytes)", buf.Len(), len(want))
	}
	return nil
}

// gridLayerShards is how many shards of the job the layer probes split it
// into; they run on the first, so that a traced run stays within its time.
const gridLayerShards = 5

// gridLayers runs grid-batch's layer probes on one shard of its job (the
// first of gridLayerShards): the shard at nproc pool workers, every cell
// of it alone (core.RunCampaignContext / beam.RunContext, configured as
// Sweep.Run configures them), the shard at 1 pool worker, and one
// campaign at 1 vs nproc in-cell workers.
func gridLayers(out *workloadResult, env *runEnv, spec fleet.Sweep) error {
	ctx := context.Background()
	plan, err := spec.Plan(0, max(1, min(gridLayerShards, spec.N, spec.BeamRuns)))
	if err != nil {
		return err
	}
	one, all := spec, spec
	one.Workers = 1
	runPlan := func(s fleet.Sweep) (float64, error) {
		var err error
		d := env.rec.time("probe.pool", "", 0, func() { _, err = s.RunPlan(ctx, plan) })
		return ms(d), err
	}
	runAll, err := runPlan(all)
	if err != nil {
		return err
	}

	probe := env.rec.begin("probe.cells", "", 0)
	cells := spec.Cells()
	beamCells := spec.BeamCells()
	var inj, eccOn, eccOff []float64
	sum := 0.0
	for _, c := range cells {
		cfg := core.CampaignConfig{
			Benchmark: c.Benchmark, N: plan.Injection.N, Offset: plan.Injection.Offset,
			Models: []fault.Model{c.Model}, Policy: c.Policy, Seed: c.Seed, BenchSeed: spec.BenchSeed, Workers: 1,
		}
		var err error
		d := ms(env.rec.time("core.cell", "", probe, func() { _, err = core.RunCampaignContext(ctx, cfg) }))
		if err != nil {
			return err
		}
		inj = append(inj, d)
		sum += d
	}
	for _, c := range beamCells {
		dev, err := phi.NewDevice(c.Device)
		if err != nil {
			return err
		}
		cfg := beam.Config{
			Benchmark: c.Benchmark, Runs: plan.Beam.N, Offset: plan.Beam.Offset, Seed: c.Seed,
			BenchSeed: spec.BenchSeed, Workers: 1, Device: dev, DisableECC: c.DisableECC,
		}
		d := ms(env.rec.time("beam.cell", "", probe, func() { _, err = beam.RunContext(ctx, cfg) }))
		if err != nil {
			return err
		}
		sum += d
		if c.DisableECC {
			eccOff = append(eccOff, d)
		} else {
			eccOn = append(eccOn, d)
		}
	}
	env.rec.end(probe)
	runOne, err := runPlan(one)
	if err != nil {
		return err
	}
	m := out.layer
	m["core.cell_ms_p50"] = median(inj)
	m["core.cell_ms_max"] = maxOf(inj)
	m["beam.cell_ms_ecc_on"] = median(eccOn)
	m["beam.cell_ms_ecc_off"] = median(eccOff)
	m["fleet.pool_idle_share"] = 1 - sum/(float64(spec.Workers)*runAll)
	m["fleet.pool_speedup"] = runOne / runAll
	out.note("grid-batch layer probes on shard %s of the job (N=%d, %d beam runs per cell): pool %.0f ms at Workers=%d, %.0f ms at 1; cells alone sum to %.0f ms",
		plan, plan.Injection.N, plan.Beam.N, runAll, spec.Workers, runOne, sum)

	// Engine scaling: one DGEMM campaign at Workers=1 vs nproc.
	cfg := core.CampaignConfig{Benchmark: "DGEMM", N: 32 * env.clients, Seed: spec.Seed, BenchSeed: spec.BenchSeed}
	var t1, tn []float64
	for i := 0; i < 3; i++ {
		for _, w := range []int{1, env.clients} {
			cfg.Workers = w
			var err error
			d := env.rec.time("probe.engine", "", 0, func() { _, err = core.RunCampaignContext(ctx, cfg) })
			if err != nil {
				return err
			}
			if w == 1 {
				t1 = append(t1, ms(d))
			} else {
				tn = append(tn, ms(d))
			}
		}
	}
	m["engine.speedup"] = median(t1) / median(tn)
	return nil
}
