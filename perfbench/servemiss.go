package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"phirel/internal/distrib"
	"phirel/internal/fleet"
	"phirel/internal/stats"
)

// serve-miss: a closed loop of `clients` clients against the phi-serve
// wiring, every request computing. The service restarts over a cache
// that already holds the serve-hit population (none of which the
// requests ask for), so set-up pays a real cache scan and every miss is
// planned against a populated overlap index. Each client POSTs its next
// question, waits on /events for the terminal frame, then GETs /result
// and verifies it.

const (
	missShards = 2
	// missOracleShare is the seeded share of answers re-run in-process
	// after the window and compared byte for byte; missOracleMax caps it.
	missOracleShare = 0.1
	missOracleMax   = 8
)

// missSample is one finished serve-miss request.
type missSample struct {
	q          question
	hash       string
	fresh      int
	t0, t1     time.Time // POST sent, POST answered
	tEv        time.Time // /events requested
	ev         sseResult
	tRes, tGot time.Time // /result requested, body received
	tDone      time.Time // body verified
}

func (s missSample) wall() time.Duration { return s.tDone.Sub(s.t0) }

func runServeMiss(env *runEnv, size workloadSize) (*workloadResult, error) {
	out := newWorkloadResult()
	dir := filepath.Join(env.workDir, fmt.Sprintf("serve-miss-%d", env.nextDir()))
	defer os.RemoveAll(dir)
	cacheDir := filepath.Join(dir, "cache")
	if _, err := populate(env, cacheDir, size.hitCore, size.hitTail); err != nil {
		return nil, err
	}
	cfg := serviceConfig{
		workerBin:     env.workerBin,
		cacheDir:      cacheDir,
		shards:        missShards,
		maxConcurrent: env.clients,
		clients:       env.clients,
	}
	var (
		lr  *launchRecorder
		svc *service
	)
	if size.traced {
		cfg.wrap = func(inner distrib.Launcher) distrib.Launcher {
			lr = newLaunchRecorder(inner, func() *distrib.Scheduler { return svc.sched })
			return lr
		}
	}

	svc, setups, err := setUpService(cfg, dir, size.setupHalf())
	if err != nil {
		return nil, err
	}

	stats0, err := svc.stats()
	if err != nil {
		svc.close()
		return nil, err
	}
	var (
		mu      sync.Mutex
		samples []missSample
		oracle  []missSample
		bodies  = map[string][]byte{}
	)
	meter := startMeter()
	loop := newClosedLoop(size, env.clients)
	loop.run(func(client int, next func() bool) {
		mix := newMissMix(env.seed, client)
		pick := stats.NewRNG(stats.Mix64(env.seed, uint64(client)+0x6f7261)) // "ora"
		for next() {
			q := mix.next()
			s, body, err := missRequest(svc, q)
			keep := pick.Bernoulli(missOracleShare)
			mu.Lock()
			out.attempted++
			if err != nil {
				out.fail(fmt.Errorf("serve-miss client %d request %.12s: %w", client, q.Spec.CanonicalHash(), err))
			} else {
				samples = append(samples, s)
				if keep && len(oracle) < missOracleMax {
					oracle = append(oracle, s)
					bodies[s.hash] = body
				}
			}
			mu.Unlock()
		}
	})
	meter.stop()
	stats1, err := svc.stats()
	svc.close()
	if lr != nil {
		lr.wait()
	}
	if err != nil {
		return nil, err
	}
	if err := out.peakRSS(meter); err != nil {
		return nil, err
	}
	// The second set-up burst scans a fresh copy of the population, as
	// the first did: the window has added its answers to the cache.
	again := cfg
	again.wrap = nil
	again.cacheDir = filepath.Join(dir, "cache-again")
	if _, err := populate(env, again.cacheDir, size.hitCore, size.hitTail); err != nil {
		return nil, err
	}
	after, err := timeSetups(again, dir, size.setupHalf())
	if err != nil {
		return nil, err
	}
	out.setup(setups, after)

	// Oracle outside the window: a seeded sample of answers must equal an
	// in-process Sweep.Run of the same spec, byte for byte.
	for _, s := range oracle {
		out.attempted++
		if err := sameAsInProcess(s.q.Spec, bodies[s.hash]); err != nil {
			out.fail(fmt.Errorf("serve-miss oracle %.12s: %w", s.hash, err))
		}
	}
	if got, want := stats1.TrialsComputed-stats0.TrialsComputed, int64(sumFresh(samples)); out.failed == 0 && got != want {
		out.fail(fmt.Errorf("serve-miss: /v1/stats counts %d computed trials, the requests asked for %d", got, want))
	}
	if len(samples) == 0 {
		return out, nil
	}

	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = ms(s.wall())
	}
	fresh := float64(sumFresh(samples))
	out.requests(lat, meter)
	out.e2e["trials_per_s"] = fresh / meter.wall.Seconds()
	out.e2e["cpu_ms_per_trial"] = ms(meter.cpu) / fresh
	out.note("serve-miss: %d requests (%d partial) from %d clients, %d trials computed, %d oracle re-runs",
		len(samples), countGrown(samples), env.clients, int(fresh), len(oracle))

	if size.traced {
		if err := missLayers(out, env, samples, lr, meter); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// missRequest runs one closed-loop request and checks its answer.
func missRequest(svc *service, q question) (missSample, []byte, error) {
	s := missSample{q: q, hash: q.Spec.CanonicalHash()}
	want := trials(q.Spec)
	s.fresh = want - q.PrefixTrials

	s.t0 = time.Now()
	st, code, err := svc.post(q.Spec)
	s.t1 = time.Now()
	if err != nil {
		return s, nil, err
	}
	switch {
	case code != http.StatusAccepted:
		return s, nil, fmt.Errorf("POST answered %d, want 202 (a computing job)", code)
	case st.ID != s.hash:
		return s, nil, fmt.Errorf("POST id %.12s, want %.12s", st.ID, s.hash)
	case st.Partial != q.Grown:
		return s, nil, fmt.Errorf("POST partial=%v, want %v", st.Partial, q.Grown)
	case q.Grown && st.Prefix != q.Prefix:
		return s, nil, fmt.Errorf("partial prefix %.12s, want %.12s", st.Prefix, q.Prefix)
	case st.TrialsComputed != s.fresh || st.TrialsFromCache != q.PrefixTrials:
		return s, nil, fmt.Errorf("POST trials computed/cached %d/%d, want %d/%d",
			st.TrialsComputed, st.TrialsFromCache, s.fresh, q.PrefixTrials)
	}

	s.tEv = time.Now()
	s.ev, err = svc.awaitEvents(s.hash)
	if err != nil {
		return s, nil, err
	}
	if s.ev.final.State != "done" {
		return s, nil, fmt.Errorf("terminal frame state %q: %s", s.ev.final.State, s.ev.final.Error)
	}

	s.tRes = time.Now()
	body, code, _, err := svc.get("/v1/sweeps/"+s.hash+"/result", "")
	s.tGot = time.Now()
	if err != nil {
		return s, nil, err
	}
	if code != http.StatusOK {
		return s, nil, fmt.Errorf("GET result answered %d after the terminal frame", code)
	}
	if err := checkComplete(body, q.Spec, s.hash); err != nil {
		return s, nil, err
	}
	s.tDone = time.Now()
	return s, body, nil
}

// checkComplete verifies an artifact: it decodes, is not a shard partial,
// its spec hashes to the sweep id, and every cell carries the requested
// trial count.
func checkComplete(body []byte, spec fleet.Sweep, hash string) error {
	res, err := fleet.ReadJSON(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if res.Shard != nil {
		return fmt.Errorf("result is shard partial %s", res.Shard)
	}
	if h := res.Spec.CanonicalHash(); h != hash {
		return fmt.Errorf("result spec hashes to %.12s, want %.12s", h, hash)
	}
	if len(res.Cells) != len(spec.Cells()) || len(res.BeamCells) != len(spec.BeamCells()) {
		return fmt.Errorf("result has %d+%d cells, want %d+%d", len(res.Cells), len(res.BeamCells), len(spec.Cells()), len(spec.BeamCells()))
	}
	for _, c := range res.Cells {
		if c.Result == nil || c.Result.N != spec.N {
			return fmt.Errorf("injection cell %s/%s incomplete", c.Benchmark, c.Model)
		}
	}
	for _, c := range res.BeamCells {
		if c.Result == nil || c.Result.Runs != spec.BeamRuns {
			return fmt.Errorf("beam cell %s incomplete", c.Benchmark)
		}
	}
	return nil
}

// sameAsInProcess runs spec with fleet's Sweep.Run and compares the
// artifact bytes.
func sameAsInProcess(spec fleet.Sweep, body []byte) error {
	res, err := spec.Run(context.Background())
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), body) {
		return fmt.Errorf("served artifact (%d bytes) differs from the in-process run (%d bytes)", len(body), buf.Len())
	}
	return nil
}

func sumFresh(ss []missSample) int {
	n := 0
	for _, s := range ss {
		n += s.fresh
	}
	return n
}

func countGrown(ss []missSample) int {
	n := 0
	for _, s := range ss {
		if s.q.Grown {
			n++
		}
	}
	return n
}

// missRoot names a serve-miss request's root span.
const missRoot = "miss.request"

// missSpans records one request's span tree. The critical path — the
// launch that ended last — is laid out inside the /events wait as the
// wait before that launch (distrib.crit_wait), the launch, merge wait
// and finalize, each clamped to the wait, so siblings never overlap and
// the tree's self times sum to the request's wall time. Other launches
// of the request are recorded as roots of their own.
func missSpans(rec *recorder, s missSample, launches []launchRec, jobDone time.Time) {
	root := rec.add(missRoot, s.hash, 0, s.t0, s.tDone)
	rec.add("serve.post", s.hash, root, s.t0, s.t1)
	events := rec.add("serve.events", s.hash, root, s.tEv, s.ev.terminal)
	rec.add("serve.result", s.hash, root, s.tRes, s.tGot)
	rec.add("client.verify", s.hash, root, s.tGot, s.tDone)

	crit := -1
	for i, l := range launches {
		if crit < 0 || l.end.After(launches[crit].end) {
			crit = i
		}
	}
	if crit < 0 {
		return
	}
	for i, l := range launches {
		if i != crit {
			rec.add("distrib.launch.parallel", s.hash, 0, l.start, l.end)
		}
	}
	c := launches[crit]
	clamp := func(t, lo, hi time.Time) time.Time {
		if t.Before(lo) {
			return lo
		}
		if t.After(hi) {
			return hi
		}
		return t
	}
	end := s.ev.terminal
	qs := clamp(c.start, s.tEv, end)
	le := clamp(c.end, qs, end)
	de := clamp(jobDone, le, end)
	rec.add("distrib.crit_wait", s.hash, events, s.tEv, qs)
	rec.add("distrib.launch", s.hash, events, qs, le)
	rec.add("distrib.merge_wait", s.hash, events, le, de)
	rec.add("serve.finalize", s.hash, events, de, end)
}

// missWaits returns one request's waits in ms, unclamped by the ledger's
// layout: POST accepted (answered) → first launch, last launch return →
// Job.Done, and Job.Done → terminal frame. A launch that began before the
// client read the 202 waited 0.
func missWaits(s missSample, launches []launchRec, done time.Time) (queue, merge, finalize float64) {
	first, last := launches[0].start, launches[0].end
	for _, l := range launches[1:] {
		if l.start.Before(first) {
			first = l.start
		}
		if l.end.After(last) {
			last = l.end
		}
	}
	return max(0, ms(first.Sub(s.t1))), max(0, ms(done.Sub(last))), max(0, ms(s.ev.terminal.Sub(done)))
}

// missLayers derives serve-miss's per-layer metrics and prints the
// attribution report.
func missLayers(out *workloadResult, env *runEnv, samples []missSample, lr *launchRecorder, meter *procMeter) error {
	rec := env.rec
	var postMiss, postPartial, frames, monFrames, queueWait, mergeWait, finalize []float64
	for _, s := range samples {
		launches, done, ok := lr.forHash(s.hash)
		if !ok || len(launches) == 0 {
			return fmt.Errorf("serve-miss: no launch or Job.Done time for %.12s", s.hash)
		}
		missSpans(rec, s, launches, done)
		q, mw, f := missWaits(s, launches, done)
		queueWait = append(queueWait, q)
		mergeWait = append(mergeWait, mw)
		finalize = append(finalize, f)
		post := ms(s.t1.Sub(s.t0))
		if s.q.Grown {
			postPartial = append(postPartial, post)
		} else {
			postMiss = append(postMiss, post)
		}
		frames = append(frames, float64(s.ev.progress+s.ev.monitor+1))
		monFrames = append(monFrames, float64(s.ev.monitor))
	}
	ls := ledgers(rec.snapshot(), missRoot)
	rows := map[string][]float64{}
	for _, l := range ls {
		if l.sum() != l.Wall {
			return fmt.Errorf("serve-miss ledger %.12s sums to %v, wall %v", l.Req, l.sum(), l.Wall)
		}
		for name, d := range l.Rows {
			rows[name] = append(rows[name], ms(d))
		}
	}
	// Rows absent from a ledger are zero for that request.
	meanRow := func(name string) float64 {
		sum := 0.0
		for _, v := range rows[name] {
			sum += v
		}
		return sum / float64(len(ls))
	}
	out.note("serve-miss attribution, mean over %d requests (ms; rows are self times and sum to the wall time):", len(ls))
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	total, wall := 0.0, 0.0
	for _, n := range names {
		total += meanRow(n)
		out.note("  %-20s %9.3f", n, meanRow(n))
	}
	for _, l := range ls {
		wall += ms(l.Wall)
	}
	wall /= float64(len(ls))
	out.note("  %-20s %9.3f (request wall %.3f)", "sum", total, wall)
	for i, l := range ls {
		if i == 3 {
			break
		}
		out.note("  e.g. %s", l)
	}

	all := lr.all()
	var launchMs []float64
	busy := 0.0
	retries, failures := 0, 0
	for _, l := range all {
		d := ms(l.end.Sub(l.start))
		launchMs = append(launchMs, d)
		busy += d
		if l.attempt > 0 {
			retries++
		}
		if l.err != nil {
			failures++
		}
	}
	m := out.layer
	m["distrib.queue_wait_ms"] = mean(queueWait)
	m["distrib.launch_ms"] = mean(launchMs)
	m["distrib.merge_wait_ms"] = mean(mergeWait)
	m["distrib.slot_busy_share"] = busy / (ms(meter.wall) * float64(env.clients))
	m["distrib.launches"] = float64(len(all))
	m["distrib.retries"] = float64(retries)
	m["distrib.launch_failures"] = float64(failures)
	m["serve.post_miss_ms"] = mean(postMiss)
	m["serve.post_partial_ms"] = mean(postPartial)
	m["serve.finalize_ms"] = mean(finalize)
	m["serve.sse_frames_per_req"] = mean(frames)
	m["serve.monitor_frames_per_req"] = mean(monFrames)
	m["serve.unattributed_ms"] = meanRow(unattributed)
	return nil
}
