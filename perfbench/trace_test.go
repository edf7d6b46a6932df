package main

import (
	"testing"
	"time"
)

func TestSelfTimesNested(t *testing.T) {
	// root [0,100] has children A [10,40] and B [30,60] (overlapping) and
	// C [90,120] (running past the root); A has child D [15,20].
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "A", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "B", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "C", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "D", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 100 - 50 - 10, // minus [10,60] once and the [90,100] part of C
		2: 30 - 5,
		3: 30,
		4: 30,
		5: 5,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
}

func TestLedgerSumsToWall(t *testing.T) {
	rec := newRecorder()
	at := func(ms int) time.Time { return rec.epoch.Add(time.Duration(ms) * time.Millisecond) }
	s := missSample{
		hash: "h1",
		t0:   at(0), t1: at(2), tEv: at(3),
		ev:   sseResult{terminal: at(90)},
		tRes: at(91), tGot: at(95), tDone: at(97),
	}
	// The critical launch (ends last) starts before /events is requested:
	// its start is clamped into the wait, and the other launch is a
	// parallel root outside the ledger.
	launches := []launchRec{
		{hash: "h1", start: at(1), end: at(60)},
		{hash: "h1", start: at(1), end: at(80)},
	}
	missSpans(rec, s, launches, at(85))
	ls := ledgers(rec.snapshot(), missRoot)
	if len(ls) != 1 {
		t.Fatalf("%d ledgers, want 1", len(ls))
	}
	l := ls[0]
	if l.sum() != l.Wall || l.Wall != 97*time.Millisecond {
		t.Fatalf("ledger %s does not sum to its 97ms wall", l)
	}
	want := map[string]int{
		"serve.post": 2, "distrib.crit_wait": 0, "distrib.launch": 77,
		"distrib.merge_wait": 5, "serve.finalize": 5, "serve.events": 0,
		"serve.result": 4, "client.verify": 2, unattributed: 2,
	}
	for name, w := range want {
		if got := l.Rows[name]; got != time.Duration(w)*time.Millisecond {
			t.Errorf("row %s = %v, want %dms", name, got, w)
		}
	}

	// The waits reported as metrics are measured from the POST answer to
	// the first launch, unclamped: here the launches began before the
	// 202 was read, so the queue wait is 0.
	if q, mw, f := missWaits(s, launches, at(85)); q != 0 || mw != 5 || f != 5 {
		t.Errorf("waits %v/%v/%v ms, want 0/5/5", q, mw, f)
	}
	late := []launchRec{{start: at(12), end: at(50)}, {start: at(30), end: at(70)}}
	if q, mw, f := missWaits(s, late, at(85)); q != 10 || mw != 15 || f != 5 {
		t.Errorf("waits %v/%v/%v ms, want 10/15/5", q, mw, f)
	}
}

func TestRecorderNilIsUntraced(t *testing.T) {
	var rec *recorder
	if id := rec.add("x", "", 0, time.Now(), time.Now()); id != 0 {
		t.Fatalf("nil recorder returned span id %d", id)
	}
	ran := false
	if d := rec.time("x", "", 0, func() { ran = true }); !ran || d < 0 {
		t.Fatal("nil recorder must still run and time f")
	}
	rec.end(rec.begin("x", "", 0))
	if rec.snapshot() != nil {
		t.Fatal("nil recorder kept spans")
	}
}
