// Package distrib fans a fleet.Sweep out across shard worker processes and
// folds the resulting partial artifacts back into one merged result,
// byte-identical to the monolithic Sweep.Run. It is the execution layer the
// sharding algebra of internal/fleet was built for: the paper's campaigns
// need tens of thousands of trials per cell, far more than one process (or
// one CI job) should run, and a shard partial already carries everything a
// merge needs to fold results computed anywhere.
//
// The moving parts:
//
//   - Plan writes the shared sweep spec file and lays out the K shard
//     tasks (one canonical partial path per shard).
//   - Launcher runs one shard worker to completion. ExecLauncher execs a
//     local phi-bench subprocess; SSHLauncher drives a remote phi-bench
//     over ssh with the spec streamed in over stdin and the partial
//     streamed back over stdout (no shared filesystem needed);
//     K8sLauncher runs each shard as one Kubernetes Job (spec in via
//     ConfigMap, partial back through the pod log in the WriteFramed
//     stdout protocol); LauncherFunc adapts an in-process function for
//     tests.
//   - Run supervises the fan-out: a bounded launch pool, a per-attempt
//     timeout, bounded retry with exponential backoff for crashed,
//     timed-out or corrupt-output workers, a progress mux folding every
//     worker's structured JSONL stderr events into fan-out-wide samples,
//     and per-shard stderr tails surfaced when a shard fails permanently.
//
// # The Launcher contract
//
// Every backend — current and future — must satisfy the same behavioural
// contract, enforced by the launcher conformance suite
// (conformance_test.go), which executes one shared table against the Exec,
// SSH and (fake-cluster) K8s launchers:
//
//   - Blocking launch: Launch returns only once the worker is finished,
//     with the shard's validated-parseable partial at task.OutPath on
//     success. A K-way fan-out must merge byte-identical to the monolithic
//     run, and worker progress must reach the supervisor's mux.
//   - Kill on cancellation: when ctx ends (the per-attempt timeout), the
//     backend must actually stop the worker — kill the process, delete the
//     Job — and return ctx.Err() so the failure reads as a timeout.
//   - Retries are the supervisor's: a failed attempt returns an error and
//     nothing else relaunches workers (k8s Jobs are created with
//     backoffLimit 0). Backends rotate what they can per attempt — ssh
//     rotates hosts, k8s mints fresh per-attempt resource names — so the
//     retry budget routes around infrastructure, never collides with it.
//   - Diagnostics on stderr: everything a worker says flows to the stderr
//     writer, so permanent failures surface each shard's tail alongside
//     the backend's native failure evidence (exit codes, Job conditions).
//     Nothing may write to it after Launch returns (a log follower must be
//     joined first): the supervisor flushes the writer at that point and
//     does not fence later writes.
//   - No trusted exits: a clean exit with a missing, truncated or
//     mislabelled partial is a failed attempt; the supervisor revalidates
//     every artifact.
//
// The end state is fleet.MergeFiles over the K validated partials, so
// everything the merge layer enforces (grid/seed/plan compatibility, exact
// index coverage) backstops the supervisor.
package distrib

import (
	"fmt"
	"path/filepath"

	"phirel/internal/fleet"
)

// Task describes one shard-worker launch.
type Task struct {
	// Shard is the 0-based shard index; Count is the total shard count K.
	Shard, Count int
	// SpecPath is the sweep spec file shared by every worker of the
	// fan-out (fleet.WriteSpecFile format, consumed by phi-bench -spec).
	SpecPath string
	// OutPath is where this shard's partial artifact must land locally.
	OutPath string
	// Attempt is the 0-based attempt number; the supervisor increments it
	// on every relaunch.
	Attempt int
	// Plan, when non-nil, overrides the balanced k-of-K split with explicit
	// trial ranges (phi-bench -plan): the worker runs exactly these ranges,
	// and the validator requires the partial's recorded plan to match. Its
	// Index/Count must agree with Shard/Count. The partial-overlap cache
	// uses this to compute only the ranges a cached prefix is missing.
	Plan *fleet.ShardPlan
	// CheckpointPath, when non-empty, is where the worker periodically
	// lands a valid shard-partial checkpoint (phi-bench -checkpoint-out),
	// and where the supervisor looks for resumable progress when it
	// relaunches the shard. The path is used verbatim on the worker side,
	// so remote launchers need it on storage both sides can reach.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in trials (phi-bench
	// -checkpoint-every); meaningful only with CheckpointPath.
	CheckpointEvery int
	// ResumeFrom, when non-empty, tells the worker to resume from this
	// checkpoint artifact (phi-bench -resume-from) and compute only the
	// remaining ranges. The supervisor sets it per attempt after
	// validating the checkpoint; callers leave it empty.
	ResumeFrom string
}

// ShardArg renders the task's position in phi-bench's 1-based -shard form.
func (t Task) ShardArg() string { return fmt.Sprintf("%d/%d", t.Shard+1, t.Count) }

// SpecFileName is the name Plan gives the shared spec file inside the
// fan-out working directory.
const SpecFileName = "sweep-spec.json"

// PartialPath is the canonical partial artifact path for shard k (0-based)
// of count in dir — the same sweep-shard-k-of-K.json convention the
// Makefile's shard target uses.
func PartialPath(dir string, k, count int) string {
	return filepath.Join(dir, fmt.Sprintf("sweep-shard-%d-of-%d.json", k+1, count))
}

// Plan writes the shared spec file into dir (which must exist) and lays
// out the fan-out's shard tasks. dir is absolutized first: task paths end
// up in worker argv, and a worker may run with a different working
// directory (ExecLauncher.Dir), which must not change where the spec is
// found or the partial lands.
func Plan(dir string, spec fleet.Sweep, shards int) ([]Task, error) {
	if shards < 1 {
		return nil, fmt.Errorf("distrib: need at least 1 shard, got %d", shards)
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("distrib: %w", err)
	}
	if _, err := spec.Plan(0, shards); err != nil {
		return nil, err
	}
	specPath := filepath.Join(dir, SpecFileName)
	if err := spec.WriteSpecFile(specPath); err != nil {
		return nil, err
	}
	tasks := make([]Task, shards)
	for k := range tasks {
		tasks[k] = Task{
			Shard:    k,
			Count:    shards,
			SpecPath: specPath,
			OutPath:  PartialPath(dir, k, shards),
		}
	}
	return tasks, nil
}

// PlanWithPrefix lays out a partially-cached fan-out in dir: the cached
// artifact — a complete, base-equal sweep covering a strict prefix of
// spec's trial space — is sliced into shard-0's partial and written
// straight to its canonical partial path (no worker ever runs for it), and
// the returned tasks are the `fresh` explicit-plan workers that compute
// only the missing trial ranges. The returned paths are every partial of
// the fan-out — prefix first, then the fresh shards — in merge order;
// fleet.MergeFiles over them reconstructs the full sweep byte-identical to
// a monolithic run.
func PlanWithPrefix(dir string, spec fleet.Sweep, cached *fleet.SweepResult, fresh int) ([]Task, []string, error) {
	if cached == nil {
		return nil, nil, fmt.Errorf("distrib: no cached artifact to plan around")
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("distrib: %w", err)
	}
	plans, err := spec.PlanWithPrefix(cached.Spec.N, cached.Spec.BeamRuns, fresh)
	if err != nil {
		return nil, nil, err
	}
	prefix, err := fleet.SliceResult(cached, spec, plans[0])
	if err != nil {
		return nil, nil, err
	}
	specPath := filepath.Join(dir, SpecFileName)
	if err := spec.WriteSpecFile(specPath); err != nil {
		return nil, nil, err
	}
	count := len(plans)
	paths := make([]string, count)
	paths[0] = PartialPath(dir, 0, count)
	if err := prefix.WriteFile(paths[0]); err != nil {
		return nil, nil, err
	}
	tasks := make([]Task, 0, count-1)
	for k := 1; k < count; k++ {
		plan := plans[k]
		paths[k] = PartialPath(dir, k, count)
		tasks = append(tasks, Task{
			Shard:    k,
			Count:    count,
			SpecPath: specPath,
			OutPath:  paths[k],
			Plan:     &plan,
		})
	}
	return tasks, paths, nil
}
