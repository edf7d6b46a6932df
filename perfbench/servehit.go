package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"phirel/internal/figures"
	"phirel/internal/fleet"
	"phirel/internal/monitor"
	"phirel/internal/serve"
)

// serve-hit: the same closed loop against a fresh serve.New over a cache
// directory populated before set-up; no request computes.

// hitEntry is one population question with digests of the exact bodies
// the service must answer for it. Only digests stay in memory, so that
// the population does not count in the window's peak resident set.
type hitEntry struct {
	spec     fleet.Sweep
	hash     string
	artifact digest
	figures  digest
	monitor  digest
}

// digest identifies a body by its length and SHA-256.
type digest struct {
	n   int
	sum [sha256.Size]byte
}

func digestOf(b []byte) digest { return digest{len(b), sha256.Sum256(b)} }

// population is a built serve-hit population: its entries, and the
// directory holding their artifacts as <hash>.json.
type population struct {
	entries []hitEntry
	dir     string
	bytes   int64
}

// populate lands the population's artifacts in dir as <hash>.json, the
// serve cache's layout. They are computed with the public fleet API once
// per process and size, and copied from disk for later passes.
func populate(env *runEnv, dir string, core, tail int) (*population, error) {
	key := [2]int{core, tail}
	pop, ok := env.populations[key]
	if !ok {
		var err error
		if pop, err = buildPopulation(env, core, tail); err != nil {
			return nil, err
		}
		if env.populations == nil {
			env.populations = map[[2]int]*population{}
		}
		env.populations[key] = pop
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, e := range pop.entries {
		if err := copyFile(filepath.Join(pop.dir, e.hash+".json"), filepath.Join(dir, e.hash+".json")); err != nil {
			return nil, err
		}
	}
	return pop, nil
}

func buildPopulation(env *runEnv, core, tail int) (*population, error) {
	pop := &population{dir: filepath.Join(env.workDir, fmt.Sprintf("population-%d", env.nextDir()))}
	if err := os.MkdirAll(pop.dir, 0o755); err != nil {
		return nil, err
	}
	specs := hitPopulation(env.seed, core, tail)
	pop.entries = make([]hitEntry, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < env.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				pop.entries[i], errs[i] = buildEntry(specs[i], pop.dir)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	seen := map[string]bool{}
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		e := pop.entries[i]
		if seen[e.hash] {
			return nil, fmt.Errorf("serve-hit population repeats sweep %.12s", e.hash)
		}
		seen[e.hash] = true
		pop.bytes += int64(e.artifact.n)
	}
	return pop, nil
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

func buildEntry(spec fleet.Sweep, dir string) (hitEntry, error) {
	e := hitEntry{spec: spec, hash: spec.CanonicalHash()}
	res, err := spec.Run(context.Background())
	if err != nil {
		return e, err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return e, err
	}
	artifact := buf.Bytes()
	e.artifact = digestOf(artifact)
	if err := os.WriteFile(filepath.Join(dir, e.hash+".json"), artifact, 0o644); err != nil {
		return e, err
	}
	// The service renders from the artifact it reads back, so the
	// expected bodies do too.
	back, err := fleet.ReadJSON(bytes.NewReader(artifact))
	if err != nil {
		return e, err
	}
	snap, err := monitor.FromSweep(back, monitor.Config{})
	if err != nil {
		return e, err
	}
	figs, err := indentJSON(struct {
		ID     string               `json:"id"`
		Groups []figures.TableGroup `json:"groups"`
	}{e.hash, figures.SweepGroups(back)})
	if err != nil {
		return e, err
	}
	mon, err := indentJSON(struct {
		ID       string           `json:"id"`
		State    string           `json:"state"`
		Snapshot monitor.Snapshot `json:"snapshot"`
	}{e.hash, "done", snap})
	e.figures, e.monitor = digestOf(figs), digestOf(mon)
	return e, err
}

// indentJSON encodes v as the service's JSON responses are encoded.
func indentJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// hitSample is one finished serve-hit request.
type hitSample struct {
	op    hitOp
	first bool // first touch of this sweep id: a disk load and revalidation
	ms    float64
}

func runServeHit(env *runEnv, size workloadSize) (*workloadResult, error) {
	out := newWorkloadResult()
	dir := filepath.Join(env.workDir, fmt.Sprintf("serve-hit-%d", env.nextDir()))
	defer os.RemoveAll(dir)
	cacheDir := filepath.Join(dir, "cache")
	popn, err := populate(env, cacheDir, size.hitCore, size.hitTail)
	if err != nil {
		return nil, err
	}
	pop, total := popn.entries, popn.bytes
	cfg := serviceConfig{
		workerBin:     env.workerBin,
		cacheDir:      cacheDir,
		cacheMaxBytes: 2 * total, // above the population: every request stays a hit
		shards:        missShards,
		maxConcurrent: env.clients,
		clients:       env.clients,
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
		samples []hitSample
		touched = map[string]bool{}
		mem0    runtime.MemStats
		mem1    runtime.MemStats
	)
	runtime.ReadMemStats(&mem0)
	meter := startMeter()
	loop := newClosedLoop(size, env.clients)
	loop.run(func(client int, next func() bool) {
		mix := newHitMix(env.seed, client, size.hitCore, size.hitTail)
		for next() {
			i, op := mix.next()
			e := &pop[i]
			mu.Lock()
			first := !touched[e.hash]
			touched[e.hash] = true
			mu.Unlock()
			t := time.Now()
			err := hitRequest(svc, e, &pop[(i+1)%len(pop)], op)
			end := time.Now()
			env.rec.add("hit."+op.String(), e.hash, 0, t, end)
			mu.Lock()
			out.attempted++
			if err != nil {
				out.fail(fmt.Errorf("serve-hit %s %.12s: %w", op, e.hash, err))
			} else {
				samples = append(samples, hitSample{op: op, first: first, ms: ms(end.Sub(t))})
			}
			mu.Unlock()
		}
	})
	meter.stop()
	runtime.ReadMemStats(&mem1)
	stats1, err := svc.stats()
	svc.close()
	if err != nil {
		return nil, err
	}
	if err := out.peakRSS(meter); err != nil {
		return nil, err
	}
	after, err := timeSetups(cfg, dir, size.setupHalf())
	if err != nil {
		return nil, err
	}
	out.setup(setups, after)
	if len(samples) == 0 {
		return out, nil
	}
	d := diffStats(stats0, stats1)
	if d.Misses != 0 || d.PartialHits != 0 || d.TrialsComputed != 0 || d.Evictions != 0 {
		out.fail(fmt.Errorf("serve-hit: the window computed or evicted (%+v)", d))
	}

	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = s.ms
	}
	out.requests(lat, meter)
	cached := float64(d.TrialsFromCache)
	if cached == 0 {
		cached = 1 // no POST in a tiny window; keeps the ratios finite
	}
	out.e2e["trials_per_s"] = cached / meter.wall.Seconds()
	out.e2e["cpu_ms_per_trial"] = ms(meter.cpu) / cached

	firsts := 0
	for _, s := range samples {
		if s.first {
			firsts++
		}
	}
	out.note("serve-hit: %d requests from %d clients over %d cached sweeps (%d KiB), %d first touches",
		len(samples), env.clients, len(pop), total/1024, firsts)

	if size.traced {
		byOp := map[hitOp][]float64{}
		var post, first, warm []float64
		for _, s := range samples {
			if s.op == opPost {
				post = append(post, s.ms)
			}
			switch {
			case s.first:
				first = append(first, s.ms)
			case s.op == opPost:
				warm = append(warm, s.ms)
				byOp[s.op] = append(byOp[s.op], s.ms)
			default:
				byOp[s.op] = append(byOp[s.op], s.ms)
			}
		}
		m := out.layer
		m["serve.post_hit_ms"] = mean(post)
		m["serve.first_touch_ms"] = mean(first)
		m["serve.warm_hit_ms"] = mean(warm)
		m["serve.status_ms"] = mean(byOp[opStatus])
		m["serve.result_ms"] = mean(append(byOp[opResult], byOp[opResultStale]...))
		m["serve.result_304_ms"] = mean(byOp[opResult304])
		m["serve.figures_ms"] = mean(byOp[opFigures])
		m["serve.monitor_ms"] = mean(byOp[opMonitor])
		if d.Submissions > 0 {
			m["serve.cache_hit_share"] = float64(d.FullHits) / float64(d.Submissions)
		}
		if t := d.TrialsFromCache + d.TrialsComputed; t > 0 {
			m["serve.trials_from_cache_share"] = float64(d.TrialsFromCache) / float64(t)
		}
		m["serve.alloc_kb_per_req"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / float64(len(samples))
	}
	return out, nil
}

// hitRequest issues one serve-hit request and checks the answer against
// the population entry it was built from.
func hitRequest(svc *service, e, other *hitEntry, op hitOp) error {
	base := "/v1/sweeps/" + e.hash
	etag := `"` + e.hash + `"`
	switch op {
	case opPost:
		st, code, err := svc.post(e.spec)
		if err != nil {
			return err
		}
		if code != http.StatusOK || st.ID != e.hash || st.State != "done" || !st.Cached {
			return fmt.Errorf("POST answered %d %+v, want 200 done cached", code, st)
		}
		return nil
	case opStatus:
		body, code, _, err := svc.get(base, "")
		if err != nil {
			return err
		}
		var st serve.Status
		if code != http.StatusOK {
			return fmt.Errorf("status answered %d", code)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		if st.ID != e.hash || st.State != "done" {
			return fmt.Errorf("status %+v, want done %.12s", st, e.hash)
		}
		return nil
	case opResult, opResult304, opResultStale:
		inm := ""
		switch op {
		case opResult304:
			inm = etag
		case opResultStale:
			inm = `"` + other.hash + `"`
		}
		body, code, hdr, err := svc.get(base+"/result", inm)
		if err != nil {
			return err
		}
		if op == opResult304 {
			if code != http.StatusNotModified || len(body) != 0 {
				return fmt.Errorf("matching If-None-Match answered %d with %d bytes, want 304", code, len(body))
			}
			return nil
		}
		if code != http.StatusOK || hdr.Get("ETag") != etag {
			return fmt.Errorf("result answered %d ETag %s, want 200 %s", code, hdr.Get("ETag"), etag)
		}
		if digestOf(body) != e.artifact {
			return fmt.Errorf("result body (%d bytes) differs from the cached artifact (%d bytes)", len(body), e.artifact.n)
		}
		return nil
	case opFigures, opMonitor:
		path, want := base+"/figures", e.figures
		if op == opMonitor {
			path, want = base+"/monitor", e.monitor
		}
		body, code, _, err := svc.get(path, "")
		if err != nil {
			return err
		}
		if code != http.StatusOK || digestOf(body) != want {
			return fmt.Errorf("%s answered %d with %d bytes, want 200 with the %d rendered bytes", path, code, len(body), want.n)
		}
		return nil
	}
	return fmt.Errorf("unknown op %d", op)
}

func diffStats(a, b serve.Stats) serve.Stats {
	return serve.Stats{
		Submissions:     b.Submissions - a.Submissions,
		FullHits:        b.FullHits - a.FullHits,
		PartialHits:     b.PartialHits - a.PartialHits,
		Misses:          b.Misses - a.Misses,
		Coalesced:       b.Coalesced - a.Coalesced,
		TrialsFromCache: b.TrialsFromCache - a.TrialsFromCache,
		TrialsComputed:  b.TrialsComputed - a.TrialsComputed,
		Evictions:       b.Evictions - a.Evictions,
	}
}
