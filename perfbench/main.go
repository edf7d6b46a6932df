// Command perfbench is phirel's benchmark: one command that runs a named
// workload against the tree it is built from, checks every output, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics of a
// separate traced run (--trace 1) named in BENCHMARK.json.
//
// Workloads:
//
//	grid-batch  the paper's full grid as one offline fleet.Sweep, run
//	            in-process by Sweep.Run at Workers = nproc, back to back
//	serve-miss  a closed loop of nproc clients against the phi-serve
//	            wiring (distrib.Scheduler + ExecLauncher running the real
//	            phi-bench, serve.New with a disk cache, loopback HTTP);
//	            every request computes
//	serve-hit   the same closed loop against a pre-populated cache; no
//	            request computes
//
// Run it through run.sh, which builds phi-bench and this command from the
// checkout first:
//
//	bash perfbench/run.sh --workload serve-miss --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits 1 when any
// output check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	_ "phirel/internal/bench/all"
)

// workloadSize scales one pass of a workload.
type workloadSize struct {
	// seconds is the closed loop's measuring window; the loop keeps going
	// past it until minReqs requests have been sent, up to maxSeconds.
	seconds, maxSeconds float64
	minReqs             int
	// Set-up is repeated at least setups times and for at least
	// setupSeconds (capped at maxSetups); its median is setup_s.
	setups       int
	setupSeconds float64
	traced       bool
	// gridN and gridBeamRuns size grid-batch's per-cell trial counts.
	gridN, gridBeamRuns int
	// hitCore and hitTail size serve-hit's cached population: varied
	// questions at the head of the popularity order, tiny ones after.
	hitCore, hitTail int
}

// The trial counts of the repository's `make sweep` (SWEEP_FLAGS), which
// grid-batch runs at.
const (
	sweepN        = 200
	sweepBeamRuns = 1000
)

// fullSize is the measured pass; the sample floor makes the serve
// workloads' p90 reportable.
func fullSize(seconds float64) workloadSize {
	return workloadSize{
		seconds: seconds, maxSeconds: max(seconds, 60), minReqs: samplesFor(0.9),
		setups: 40, setupSeconds: 3, gridN: sweepN, gridBeamRuns: sweepBeamRuns, hitCore: 96, hitTail: 768,
	}
}

// shortSize is the brief traced pass of the workloads a traced run is not
// named after, so that every per-layer metric is measured in every
// traced run. Its grid-batch job is a tenth of `make sweep`'s.
func shortSize() workloadSize {
	return workloadSize{
		seconds: 2, maxSeconds: 30, minReqs: 20, setups: 3,
		traced: true, gridN: sweepN / 10, gridBeamRuns: sweepBeamRuns / 10, hitCore: 24, hitTail: 48,
	}
}

// runEnv is what every pass shares.
type runEnv struct {
	seed      uint64
	clients   int // nproc: client goroutines, worker slots, pool width
	workerBin string
	workDir   string
	rec       *recorder // nil: untraced
	dirSeq    atomic.Int64
	// populations memoizes serve-hit populations by (core, tail) size:
	// their specs and body digests, with the artifacts on disk.
	populations map[[2]int]*population
	// gridArtifacts holds the first artifact of each grid-batch spec run
	// in this process, by canonical hash.
	gridArtifacts map[string][]byte
}

func (e *runEnv) nextDir() int64 { return e.dirSeq.Add(1) }

type workloadFunc func(*runEnv, workloadSize) (*workloadResult, error)

var workloads = map[string]workloadFunc{
	"grid-batch": runGridBatch,
	"serve-miss": runServeMiss,
	"serve-hit":  runServeHit,
}

// workloadResult is one pass's outcome.
type workloadResult struct {
	attempted, failed int
	errs              []string
	e2e, layer        map[string]float64
	notes             []string
	// thin names percentiles whose sample count broke the minBeyond rule.
	thin    []string
	meter   *procMeter
	reqPerS float64
}

func newWorkloadResult() *workloadResult {
	return &workloadResult{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *workloadResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *workloadResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *workloadResult) setup(before, after []float64) {
	r.e2e["setup_s"] = median(append(append([]float64(nil), before...), after...))
}

// requests fills the request-latency, rate and CPU metrics from one
// window's latencies (ms).
func (r *workloadResult) requests(lat []float64, m *procMeter) {
	r.meter = m
	p50, _ := percentile(lat, 0.5)
	p90, err := percentile(lat, 0.9)
	if err != nil {
		r.thin = append(r.thin, "req_p90_ms: "+err.Error())
		s := sortedCopy(lat)
		p90 = s[nearestRank(len(s), 0.9)-1]
	}
	n := float64(len(lat))
	r.reqPerS = n / m.wall.Seconds()
	r.e2e["req_p50_ms"] = p50
	r.e2e["req_p90_ms"] = p90
	r.e2e["req_per_s"] = r.reqPerS
	r.e2e["cpu_ms_per_req"] = ms(m.cpu) / n
	r.note("window %.2fs, %d requests, CPU %.2fs (children %.2fs); p50 and p90 over %d samples, highest supported percentile p%g",
		m.wall.Seconds(), len(lat), m.cpu.Seconds(), m.childCPUd.Seconds(), len(lat), tailQuantile(len(lat))*100)
}

func (r *workloadResult) peakRSS(m *procMeter) error {
	v, err := m.peakRSSMB()
	r.e2e["peak_rss_mb"] = v
	if !m.peakReset {
		r.note("peak_rss_mb: VmHWM could not be reset at the window start, so it includes set-up")
	}
	return err
}

// merge folds a pass into the run's totals.
func (r *workloadResult) merge(o *workloadResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
	r.notes = append(r.notes, o.notes...)
	r.thin = append(r.thin, o.thin...)
	for k, v := range o.layer {
		r.layer[k] = v
	}
}

// setupHalf sizes one of a pass's two set-up bursts, one before the
// window and one after it: the machine's speed drifts over a run, and a
// median over both bursts spans the run rather than one moment of it.
func (s workloadSize) setupHalf() workloadSize {
	h := s
	h.setups = (s.setups + 1) / 2
	h.setupSeconds = s.setupSeconds / 2
	return h
}

// maxSetups caps set-up repetitions.
const maxSetups = 201

// repeatSetup times set-up (once returns one set-up's duration) at least
// size.setups times and for at least size.setupSeconds, and returns the
// durations in seconds.
func repeatSetup(size workloadSize, once func() (time.Duration, error)) ([]float64, error) {
	start := time.Now()
	var out []float64
	for len(out) < maxSetups && (len(out) < size.setups || time.Since(start).Seconds() < size.setupSeconds) {
		d, err := once()
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// closedLoop hands requests to a fixed set of clients, each sending its
// next request only after the previous one completed.
type closedLoop struct {
	clients            int
	deadline, hardStop time.Time
	minReqs            int64
	started            atomic.Int64
}

func newClosedLoop(size workloadSize, clients int) *closedLoop {
	now := time.Now()
	return &closedLoop{
		clients:  clients,
		deadline: now.Add(time.Duration(size.seconds * float64(time.Second))),
		hardStop: now.Add(time.Duration(size.maxSeconds * float64(time.Second))),
		minReqs:  int64(size.minReqs),
	}
}

// next reports whether a client may send another request.
func (l *closedLoop) next() bool {
	now := time.Now()
	if now.After(l.hardStop) {
		return false
	}
	if now.Before(l.deadline) || l.started.Load() < l.minReqs {
		l.started.Add(1)
		return true
	}
	return false
}

// run starts the clients and returns when all have stopped.
func (l *closedLoop) run(client func(id int, next func() bool)) {
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client(c, l.next)
		}(c)
	}
	wg.Wait()
}

// benchSpec is the part of BENCHMARK.json this command reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pick selects the spec's metrics from values, failing on a missing,
// unexpected or non-finite one.
func pick(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured metric %s is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload name (grid-batch, serve-miss, serve-hit)")
		seed      = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 10, "measuring window per pass, in seconds")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		workerBin = flag.String("worker-bin", ".bench_build/bin/phi-bench", "phi-bench binary built from the tree under test")
		workDir   = flag.String("work-dir", ".bench_build/work", "scratch directory for caches, job directories and traces")
		specFile  = flag.String("spec-file", "BENCHMARK.json", "benchmark definition naming the workloads and metrics")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *workerBin, *workDir, *specFile); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose result line was printed with
// correct=false.
var errIncorrect = errors.New("output checks failed")

func run(workload string, seed uint64, seconds float64, trace int, workerBin, workDir, specFile string) error {
	spec, err := readBenchSpec(specFile)
	if err != nil {
		return err
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == workload
	}
	fn := workloads[workload]
	if !known || fn == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if _, err := os.Stat(workerBin); err != nil {
		return fmt.Errorf("worker binary: %w", err)
	}
	if workerBin, err = filepath.Abs(workerBin); err != nil {
		return err
	}
	runDir := filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	env := &runEnv{seed: seed, clients: runtime.NumCPU(), workerBin: workerBin, workDir: runDir}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d clients=%d\n",
		workload, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), env.clients)

	var total *workloadResult
	var values map[string]float64
	var metrics []metricSpec
	if trace == 0 {
		total, err = fn(env, fullSize(seconds))
		if err != nil {
			return err
		}
		values, metrics = total.e2e, spec.EndToEnd
	} else {
		tracePath := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
		if total, err = tracedRun(env, workload, fullSize(seconds), shortSize(), tracePath); err != nil {
			return err
		}
		values, metrics = total.layer, spec.PerLayer
		fmt.Printf("spans written to %s\n", tracePath)
	}
	for _, n := range total.notes {
		fmt.Println(n)
	}
	if len(total.thin) > 0 {
		return fmt.Errorf("the window ended below the sample rule: %s", strings.Join(total.thin, "; "))
	}
	for _, e := range total.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	picked, err := pick(metrics, values)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(picked))
	for n := range picked {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, picked[n].Value, picked[n].Unit)
	}
	fmt.Printf("error_share %.6g (%d failed of %d attempted)\n",
		float64(total.failed)/float64(max(total.attempted, 1)), total.failed, total.attempted)
	line, err := json.Marshal(resultLine{
		Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: picked,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if total.failed > 0 || total.attempted == 0 {
		return errIncorrect
	}
	return nil
}

// tracedRun measures the named workload traced at size, bracketed by two
// untraced half-length windows whose mean request rate is the reference
// for the tracing overhead (bracketing cancels a steady drift of the
// machine's speed). It then runs the other workloads with tracing on at
// short size, so that their layers are measured too, and the layer
// probes. Spans are written to tracePath when the run ends.
func tracedRun(env *runEnv, workload string, size, short workloadSize, tracePath string) (*workloadResult, error) {
	fn := workloads[workload]
	half := size
	half.seconds /= 2
	half.minReqs = min(half.minReqs, 10)
	half.setups, half.setupSeconds = 1, 0
	total := newWorkloadResult()
	rec := newRecorder()
	var refRate float64
	var tr *workloadResult
	for i, pass := range []string{"untraced", "traced", "untraced"} {
		sz, r := half, (*recorder)(nil)
		if pass == "traced" {
			sz, r = size, rec
		}
		sz.traced = r != nil
		env.rec = r
		res, err := fn(env, sz)
		if err != nil {
			return nil, err
		}
		if res.meter == nil {
			return nil, fmt.Errorf("%s completed no requests", workload)
		}
		if pass == "traced" {
			tr = res
		} else {
			res.thin = nil // reference windows report a rate only
			res.layer = nil
			refRate += res.reqPerS / 2
		}
		total.merge(res)
		total.note("%s pass %d (%s): %.4g requests/s", workload, i+1, pass, res.reqPerS)
	}
	env.rec = rec
	total.layer["proc.cpu_util"] = tr.meter.cpu.Seconds() / (tr.meter.wall.Seconds() * float64(env.clients))
	total.layer["trace.overhead_share"] = 1 - tr.reqPerS/refRate

	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if name == workload {
			continue
		}
		short.traced = true
		o, err := workloads[name](env, short)
		if err != nil {
			return nil, err
		}
		o.thin = nil // brief passes report means, not percentiles
		total.merge(o)
	}
	for _, probe := range []func(*workloadResult, *runEnv) error{kernelProbe, artifactProbe, workerProbe} {
		if err := probe(total, env); err != nil {
			return nil, err
		}
	}
	if err := env.rec.writeJSONL(tracePath); err != nil {
		return nil, err
	}
	return total, nil
}
