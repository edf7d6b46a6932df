package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"phirel/internal/bench"
	"phirel/internal/core"
	"phirel/internal/distrib"
	"phirel/internal/fault"
	"phirel/internal/figures"
	"phirel/internal/fleet"
	"phirel/internal/monitor"
	"phirel/internal/stats"
)

// Layer probes: fixed-input measurements of single layers through their
// public functions, run in every traced run.

const (
	kernelGoldenReps = 5
	// kernelArmedTrials is the fixed seeded trial set each benchmark's
	// armed cost is averaged over.
	kernelArmedTrials = 16
	kernelTrialSeed   = 0x6b65726e656c // "kernel"
	artifactReps      = 15
	workerReps        = 5
)

// kernelProbe times golden vs armed trials per benchmark through
// core.NewInjector → Runner.RunGolden and Injector.InjectOne.
func kernelProbe(out *workloadResult, env *runEnv) error {
	root := env.rec.begin("probe.kernel", "", 0)
	defer env.rec.end(root)
	m := out.layer
	logRatio := 0.0
	names := bench.Names()
	for _, name := range names {
		in, err := core.NewInjector(name, 1, 0)
		if err != nil {
			return err
		}
		var golden []float64
		for i := 0; i < kernelGoldenReps; i++ {
			golden = append(golden, ms(env.rec.time("kernel.golden", name, root, func() { in.Runner.RunGolden() })))
		}
		var armed []float64
		for i := 0; i < kernelArmedTrials; i++ {
			rng := stats.NewRNG(stats.Mix64(kernelTrialSeed, uint64(i)))
			model := fault.Models[i%len(fault.Models)]
			armed = append(armed, ms(env.rec.time("kernel.armed", name, root, func() { in.InjectOne(model, rng) })))
		}
		g, a := median(golden), mean(armed)
		m["kernel."+name+".golden_ms"] = g
		m["kernel."+name+".armed_ms"] = a
		logRatio += math.Log(a / g)

		sized, ok := in.Bench.(interface{ Size() int })
		if !ok {
			continue
		}
		n := float64(sized.Size())
		var flops, byteCount float64
		switch name {
		case "DGEMM": // C = A·B: 2n³ flops over three n×n float64 matrices
			flops, byteCount = 2*n*n*n, 3*n*n*8
		case "LUD": // in-place LU: 2n³/3 flops over one n×n float64 matrix
			flops, byteCount = 2*n*n*n/3, n*n*8
		default:
			continue
		}
		m["kernel."+name+".gflops"] = flops / (g / 1e3) / 1e9
		out.note("kernel %s: n=%d, %.0f flops and %.0f bytes per golden run (computed from the problem dimensions, not measured)",
			name, int(n), flops, byteCount)
	}
	m["kernel.armed_over_golden"] = math.Exp(logRatio / float64(len(names)))
	out.note("kernel: no roofline ratio is reported: this machine reports an L3 of %s, so a valid bandwidth probe would need arrays of at least four times that (>=1.2 GB for 300 MB)", l3Size())
	return nil
}

// l3Size reads the L3 size the kernel reports for cpu0.
func l3Size() string {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	if err != nil {
		return "(unknown)"
	}
	return strings.TrimSpace(string(b))
}

// artifactProbe times the fleet artifact layer, the monitor fold and the
// figures render on one full-grid artifact.
func artifactProbe(out *workloadResult, env *runEnv) error {
	ctx := context.Background()
	spec := gridSpec(env.seed, env.clients, 2, 4)
	full, err := spec.Run(ctx)
	if err != nil {
		return err
	}
	a, err := spec.RunShard(ctx, 0, 2)
	if err != nil {
		return err
	}
	b, err := spec.RunShard(ctx, 1, 2)
	if err != nil {
		return err
	}
	dir := filepath.Join(env.workDir, fmt.Sprintf("artifact-%d", env.nextDir()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	shardPath := filepath.Join(dir, "shard.json")
	if err := a.WriteFile(shardPath); err != nil {
		return err
	}
	grown := spec
	grown.N *= 2
	grown.BeamRuns *= 2
	plan := fleet.ShardPlan{Index: 0, Count: 2, Injection: fleet.TrialRange{N: spec.N}, Beam: fleet.TrialRange{N: spec.BeamRuns}}

	root := env.rec.begin("probe.artifact", "", 0)
	defer env.rec.end(root)
	var enc, dec, rd, merge, slice, hash, hashBase, fold, render []float64
	var artifact []byte
	for i := 0; i < artifactReps; i++ {
		var buf bytes.Buffer
		var err error
		enc = append(enc, ms(env.rec.time("fleet.encode", "", root, func() { err = full.WriteJSON(&buf) })))
		if err != nil {
			return err
		}
		artifact = buf.Bytes()
		dec = append(dec, ms(env.rec.time("fleet.decode", "", root, func() { _, err = fleet.ReadJSON(bytes.NewReader(artifact)) })))
		if err != nil {
			return err
		}
		rd = append(rd, ms(env.rec.time("fleet.read_shard", "", root, func() { _, err = fleet.ReadShardFile(shardPath) })))
		if err != nil {
			return err
		}
		merge = append(merge, ms(env.rec.time("fleet.merge", "", root, func() { _, err = fleet.MergeSweepResults(a, b) })))
		if err != nil {
			return err
		}
		slice = append(slice, ms(env.rec.time("fleet.slice", "", root, func() { _, err = fleet.SliceResult(full, grown, plan) })))
		if err != nil {
			return err
		}
		hash = append(hash, ms(env.rec.time("fleet.hash", "", root, func() { spec.CanonicalHash() })))
		hashBase = append(hashBase, ms(env.rec.time("fleet.hash_base", "", root, func() { spec.CanonicalHashBase() })))
		fold = append(fold, ms(env.rec.time("monitor.fold", "", root, func() { _, err = monitor.FromSweep(full, monitor.Config{}) })))
		if err != nil {
			return err
		}
		render = append(render, ms(env.rec.time("figures.render", "", root, func() { figures.SweepGroups(full) })))
	}
	m := out.layer
	m["fleet.encode_ms"] = median(enc)
	m["fleet.decode_ms"] = median(dec)
	m["fleet.read_shard_ms"] = median(rd)
	m["fleet.merge_ms"] = median(merge)
	m["fleet.slice_ms"] = median(slice)
	m["fleet.hash_us"] = median(hash) * 1e3
	m["fleet.hash_base_us"] = median(hashBase) * 1e3
	m["fleet.artifact_kb"] = float64(len(artifact)) / 1024
	m["monitor.fold_ms"] = median(fold)
	m["figures.render_ms"] = median(render)
	return nil
}

// workerProbe launches the real phi-bench through distrib.ExecLauncher,
// as the scheduler does, on a 1-trial and an N-trial plan of the same
// spec: the difference gives the per-trial slope, the rest is the
// worker's fixed cost (spawn, spec parse, golden runs, encode).
func workerProbe(out *workloadResult, env *runEnv) error {
	const perCell = 16
	spec := fleet.Sweep{
		Benchmarks: []string{"DGEMM", "NW"}, Models: []fault.Model{fault.Single},
		N: perCell, Seed: stats.Mix64(env.seed, 0x776b), BenchSeed: 1, Workers: 1,
	}
	dir := filepath.Join(env.workDir, fmt.Sprintf("worker-%d", env.nextDir()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	specPath := filepath.Join(dir, distrib.SpecFileName)
	if err := spec.WriteSpecFile(specPath); err != nil {
		return err
	}
	cells := len(spec.Cells())
	launcher := distrib.ExecLauncher{Command: []string{env.workerBin}}
	root := env.rec.begin("probe.worker", "", 0)
	defer env.rec.end(root)
	var t1, tn []float64
	for i := 0; i < workerReps; i++ {
		for _, n := range []int{1, perCell} {
			plan := fleet.ShardPlan{Index: 0, Count: 1, Injection: fleet.TrialRange{N: n}}
			task := distrib.Task{Shard: 0, Count: 1, SpecPath: specPath, OutPath: filepath.Join(dir, "out.json"), Plan: &plan}
			var err error
			d := env.rec.time("distrib.worker", "", root, func() { err = launcher.Launch(context.Background(), task, io.Discard) })
			if err != nil {
				return err
			}
			part, err := fleet.ReadShardFile(task.OutPath)
			if err != nil {
				return err
			}
			if part.Cells[0].Result == nil || part.Cells[0].Result.N != n {
				return fmt.Errorf("worker probe: plan of %d trials came back with another count", n)
			}
			if n == 1 {
				t1 = append(t1, ms(d))
			} else {
				tn = append(tn, ms(d))
			}
		}
	}
	slope := (median(tn) - median(t1)) / float64(cells*(perCell-1))
	out.layer["distrib.worker_ms_per_trial"] = slope
	out.layer["distrib.worker_fixed_ms"] = median(t1) - slope*float64(cells)
	return nil
}
