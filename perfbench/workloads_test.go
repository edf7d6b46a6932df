package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"phirel/internal/fleet"
)

// tinySize is a smoke-size pass: a few requests, every check still on.
func tinySize() workloadSize {
	return workloadSize{
		seconds: 0.2, maxSeconds: 30, minReqs: 3, setups: 2,
		gridN: 1, gridBeamRuns: 1, hitCore: 4, hitTail: 4,
	}
}

// testEnv builds phi-bench from the enclosing module into a temp dir.
func testEnv(t *testing.T) *runEnv {
	t.Helper()
	if testing.Short() {
		t.Skip("builds phi-bench and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "phi-bench")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/phi-bench")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building phi-bench: %v\n%s", err, out)
	}
	work := filepath.Join(dir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		t.Fatal(err)
	}
	return &runEnv{seed: 9, clients: 2, workerBin: bin, workDir: work}
}

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := readBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json names workloads %v, the command runs %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("BENCHMARK.json names workloads %v, the command runs %v", names, have)
		}
	}
	return spec
}

// TestTinyPasses runs every workload at tiny size, untraced and traced:
// every output check passes, and the metric names are BENCHMARK.json's.
func TestTinyPasses(t *testing.T) {
	spec := loadSpec(t)
	env := testEnv(t)
	for name, fn := range workloads {
		t.Run(name, func(t *testing.T) {
			env.rec = nil
			res, err := fn(env, tinySize())
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d checks failed: %v", res.failed, res.attempted, res.errs)
			}
			if _, err := pick(spec.EndToEnd, res.e2e); err != nil {
				t.Fatal(err)
			}
			for k, v := range res.e2e {
				if v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", k, v)
				}
			}

			tr, err := tracedRun(env, name, tinySize(), tinySize(), filepath.Join(t.TempDir(), "trace.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if tr.failed != 0 {
				t.Fatalf("traced run: %d checks failed: %v", tr.failed, tr.errs)
			}
			if _, err := pick(spec.PerLayer, tr.layer); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOraclesRejectWrongAnswers feeds the output checks answers that are
// wrong in the ways a broken server or merge could be.
func TestOraclesRejectWrongAnswers(t *testing.T) {
	a := fleet.Sweep{Benchmarks: []string{"NW"}, N: 2, Seed: 1, BenchSeed: 1, Workers: 1}
	b := a
	b.Seed = 2
	res, err := a.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	if err := checkComplete(body, a, a.CanonicalHash()); err != nil {
		t.Fatalf("the true answer was rejected: %v", err)
	}
	if err := checkComplete(body, b, b.CanonicalHash()); err == nil {
		t.Error("an answer to another sweep passed checkComplete")
	}
	bigger := a
	bigger.N = 4
	if err := checkComplete(body, bigger, a.CanonicalHash()); err == nil {
		t.Error("an answer with too few trials passed checkComplete")
	}
	if err := checkComplete(body[:len(body)/2], a, a.CanonicalHash()); err == nil {
		t.Error("a truncated answer passed checkComplete")
	}
	if err := sameAsInProcess(a, body); err != nil {
		t.Fatalf("the true answer differs from the in-process run: %v", err)
	}
	flipped := bytes.Replace(body, []byte(`"n": 2`), []byte(`"n": 3`), 1)
	if err := sameAsInProcess(a, flipped); err == nil {
		t.Error("altered bytes matched the in-process run")
	}
	if err := sameAsTwoShards(a, flipped); err == nil {
		t.Error("altered bytes matched the merged shards")
	}
}
