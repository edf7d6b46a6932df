package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Parent is 0 for a root span; Req groups the spans
// of one request (the sweep's canonical hash).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	// Start and End are nanoseconds since the recorder's epoch.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a no-op, so call sites need no
// branches.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a span with known bounds and returns its id (0 when
// untraced).
func (r *recorder) add(name, req string, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// begin opens a span that end closes; it returns the span's id (0 when
// untraced).
func (r *recorder) begin(name, req string, parent int64) int64 {
	now := time.Now()
	return r.add(name, req, parent, now, now)
}

// end closes a span opened by begin.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// time runs f inside a span and returns f's duration, which is measured
// whether or not the recorder is on.
func (r *recorder) time(name, req string, parent int64, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	r.add(name, req, parent, start, end)
	return end.Sub(start)
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every span as one JSON line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes maps every span id to its self time: its duration minus the
// part of its interval that its children cover (overlapping children are
// counted once, and child time outside the parent is ignored).
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// parent.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// ledger is one request's attribution: the self time of every span in its
// tree summed by span name. The root's own self time is the part of the
// request no layer span covers; rows sum to the root's wall time.
type ledger struct {
	Req  string
	Wall time.Duration
	Rows map[string]time.Duration
}

// ledgers builds one ledger per root span named root.
func ledgers(spans []span, root string) []ledger {
	self := selfTimes(spans)
	byParent := map[int64][]span{}
	for _, s := range spans {
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	var out []ledger
	for _, r := range byParent[0] {
		if r.Name != root {
			continue
		}
		l := ledger{Req: r.Req, Wall: r.dur(), Rows: map[string]time.Duration{}}
		stack := []span{r}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			name := s.Name
			if s.ID == r.ID {
				name = unattributed
			}
			l.Rows[name] += self[s.ID]
			stack = append(stack, byParent[s.ID]...)
		}
		out = append(out, l)
	}
	return out
}

// unattributed names the ledger row for request time no layer span covers.
const unattributed = "unattributed"

// sum adds up a ledger's rows.
func (l ledger) sum() time.Duration {
	var t time.Duration
	for _, d := range l.Rows {
		t += d
	}
	return t
}

func (l ledger) String() string {
	names := make([]string, 0, len(l.Rows))
	for n := range l.Rows {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("%.12s wall=%.2fms", l.Req, ms(l.Wall))
	for _, n := range names {
		s += fmt.Sprintf(" %s=%.2f", n, ms(l.Rows[n]))
	}
	return s + fmt.Sprintf(" sum=%.2fms", ms(l.sum()))
}
