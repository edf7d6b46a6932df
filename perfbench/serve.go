package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"phirel/internal/distrib"
	"phirel/internal/fleet"
	"phirel/internal/serve"
)

// service is the phi-serve wiring run in-process: a distrib.Scheduler
// whose ExecLauncher runs the phi-bench built from the tree under test,
// serve.New over a disk cache, and an HTTP server on a loopback port.
type service struct {
	sched  *distrib.Scheduler
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

type serviceConfig struct {
	workerBin     string
	workDir       string
	cacheDir      string
	cacheMaxBytes int64
	shards        int
	maxConcurrent int
	clients       int
	// wrap, when non-nil, decorates the launcher (the traced run's
	// launch recorder).
	wrap func(distrib.Launcher) distrib.Launcher
}

// startService builds the wiring and starts serving. The duration it
// returns is the set-up a client waits for: scheduler, serve.New
// (including its cache scan) and the listening socket, after which the
// first request can be sent.
func startService(cfg serviceConfig) (*service, time.Duration, error) {
	start := time.Now()
	var launch distrib.Launcher = distrib.ExecLauncher{Command: []string{cfg.workerBin}}
	if cfg.wrap != nil {
		launch = cfg.wrap(launch)
	}
	opts := distrib.Defaults()
	opts.Shards = cfg.shards
	opts.MaxConcurrent = cfg.maxConcurrent
	opts.Launcher = launch
	opts.Dir = cfg.workDir
	sched, err := distrib.NewScheduler(opts)
	if err != nil {
		return nil, 0, err
	}
	sopts := []serve.Option{serve.WithCacheDir(cfg.cacheDir)}
	if cfg.cacheMaxBytes > 0 {
		sopts = append(sopts, serve.WithCacheMaxBytes(cfg.cacheMaxBytes))
	}
	srv := serve.New(sched, sopts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	setup := time.Since(start)
	if err != nil {
		sched.Close()
		return nil, 0, err
	}
	s := &service{
		sched: sched,
		hs:    &http.Server{Handler: srv.Handler()},
		base:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: cfg.clients,
			MaxConnsPerHost:     cfg.clients,
		}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, setup, nil
}

// timeSetups times repeated set-ups of the wiring (see startService),
// each in its own job directory under dir. The timed instances are closed
// without a connection: a connection per set-up would pile up TIME_WAIT
// sockets, which slow every later bind of an ephemeral port.
func timeSetups(cfg serviceConfig, dir string, size workloadSize) ([]float64, error) {
	return repeatSetup(size, func() (time.Duration, error) {
		var err error
		if cfg.workDir, err = os.MkdirTemp(dir, "jobs-"); err != nil {
			return 0, err
		}
		s, d, err := startService(cfg)
		if err != nil {
			return 0, err
		}
		s.close()
		return d, nil
	})
}

// setUpService times set-ups (see timeSetups), then starts the instance
// that serves the window and checks that it answers.
func setUpService(cfg serviceConfig, dir string, size workloadSize) (*service, []float64, error) {
	times, err := timeSetups(cfg, dir, size)
	if err != nil {
		return nil, nil, err
	}
	if cfg.workDir, err = os.MkdirTemp(dir, "jobs-"); err != nil {
		return nil, nil, err
	}
	s, _, err := startService(cfg)
	if err != nil {
		return nil, nil, err
	}
	if _, err := s.stats(); err != nil {
		s.close()
		return nil, nil, fmt.Errorf("service not ready: %w", err)
	}
	return s, times, nil
}

// close drains HTTP, stops the scheduler (cancelling and awaiting its
// jobs and their worker processes) and waits for the serve loop to end.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	s.sched.Close()
	<-s.served
	s.client.CloseIdleConnections()
}

// stats fetches /v1/stats.
func (s *service) stats() (serve.Stats, error) {
	var st serve.Stats
	body, code, _, err := s.get("/v1/stats", "")
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: %d", code)
	}
	return st, json.Unmarshal(body, &st)
}

// get issues a GET and returns the whole body.
func (s *service) get(path, ifNoneMatch string) ([]byte, int, http.Header, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, 0, nil, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, resp.Header, err
}

// post submits a spec and decodes the Status answer.
func (s *service) post(spec fleet.Sweep) (serve.Status, int, error) {
	var buf bytes.Buffer
	if err := spec.WriteSpec(&buf); err != nil {
		return serve.Status{}, 0, err
	}
	resp, err := s.client.Post(s.base+"/v1/sweeps", "application/json", &buf)
	if err != nil {
		return serve.Status{}, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.Status{}, resp.StatusCode, err
	}
	var st serve.Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		err = json.Unmarshal(body, &st)
	} else {
		err = fmt.Errorf("POST /v1/sweeps: %d %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return st, resp.StatusCode, err
}

// sseResult is what one /events stream delivered.
type sseResult struct {
	terminal time.Time // terminal "done" frame received
	final    serve.Status
	progress int
	monitor  int
}

// awaitEvents reads /v1/sweeps/{id}/events until the terminal frame.
func (s *service) awaitEvents(id string) (sseResult, error) {
	var out sseResult
	resp, err := s.client.Get(s.base + "/v1/sweeps/" + id + "/events")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("GET events: %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, errors.New("SSE stream ended without a terminal frame")
			}
			return out, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				out.progress++
			case "monitor":
				out.monitor++
			case "done":
				out.terminal = time.Now()
				if err := json.Unmarshal([]byte(data), &out.final); err != nil {
					return out, fmt.Errorf("terminal frame: %w", err)
				}
				// Drain so the connection returns to the pool.
				io.Copy(io.Discard, br)
				return out, nil
			}
		}
	}
}

// launchRecorder decorates the scheduler's launcher: it times every
// launch, tags it with the sweep's canonical hash (read back from the
// task's spec file), counts attempts and failures, and notes when each
// job's Done channel closes.
type launchRecorder struct {
	inner distrib.Launcher
	sched func() *distrib.Scheduler

	mu       sync.Mutex
	launches []launchRec
	jobDone  map[string]time.Time
	watched  map[string]bool
	watchers sync.WaitGroup
}

type launchRec struct {
	hash       string
	attempt    int
	start, end time.Time
	err        error
}

func newLaunchRecorder(inner distrib.Launcher, sched func() *distrib.Scheduler) *launchRecorder {
	return &launchRecorder{inner: inner, sched: sched, jobDone: map[string]time.Time{}, watched: map[string]bool{}}
}

func (l *launchRecorder) Launch(ctx context.Context, task distrib.Task, stderr io.Writer) error {
	hash := ""
	if spec, err := fleet.ReadSpecFile(task.SpecPath); err == nil {
		hash = spec.CanonicalHash()
		l.watch(filepath.Dir(task.SpecPath), hash)
	}
	start := time.Now()
	err := l.inner.Launch(ctx, task, stderr)
	end := time.Now()
	l.mu.Lock()
	l.launches = append(l.launches, launchRec{hash: hash, attempt: task.Attempt, start: start, end: end, err: err})
	l.mu.Unlock()
	return err
}

// watch starts, once per job directory, a goroutine that records when
// the job's Done channel closes. Scheduler.Close finishes every job, so
// the goroutines end; wait joins them.
func (l *launchRecorder) watch(dir, hash string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.watched[dir] {
		return
	}
	for _, j := range l.sched().Jobs() {
		if j.Dir() != dir {
			continue
		}
		l.watched[dir] = true
		l.watchers.Add(1)
		go func(j *distrib.Job) {
			defer l.watchers.Done()
			<-j.Done()
			l.mu.Lock()
			l.jobDone[hash] = time.Now()
			l.mu.Unlock()
		}(j)
		return
	}
}

func (l *launchRecorder) wait() { l.watchers.Wait() }

// forHash returns the launches of one sweep and its Job.Done time.
func (l *launchRecorder) forHash(hash string) ([]launchRec, time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []launchRec
	for _, r := range l.launches {
		if r.hash == hash {
			out = append(out, r)
		}
	}
	done, ok := l.jobDone[hash]
	return out, done, ok
}

func (l *launchRecorder) all() []launchRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]launchRec(nil), l.launches...)
}
