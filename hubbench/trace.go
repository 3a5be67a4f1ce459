package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/server"
)

// The traced run records spans only from the benchmark's own code: the
// generator's exchange and verify spans, client calls, a bus sink that
// turns the hub's step, route and lifecycle events into spans, timing
// wrappers around the back ends and the journal's filesystem, and the codec
// and transform replay. Spans stay in memory until the run ends.

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Ex     string `json:"ex,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// Span names the ledger attributes time by.
const (
	spanExchange  = "exchange"      // generator: submit → verified result
	spanClient    = "client.submit" // daemon round trip inside an exchange
	spanVerify    = "verify"        // generator: POA decode and check
	spanRead      = "client.trace"  // a trace read of a finished exchange
	spanLifecycle = "hub.lifecycle" // the hub's started → finished interval
	spanWait      = "sched.wait"    // scheduler enqueue → dispatch (no exchange)
	spanRoute     = "route:"        // prefix of routing hops (instants)
	spanStep      = "step:"         // prefix of workflow step executions
	spanBackend   = "backend."      // prefix of back-end calls (no exchange)
	spanJrnWrite  = "journal.write"
	spanJrnSync   = "journal.fsync"
	spanReplay    = "replay" // root of one codec/transform replay
	spanDecode    = "replay.decode"
	spanEncode    = "replay.encode"
	spanTransform = "replay.transform"
)

// rulesStep is the private process step that evaluates the approval rules.
const rulesStep = "Check need for approval"

// schedMark is one scheduler event, kept to pair enqueues with dispatches.
type schedMark struct {
	seq   uint64
	at    int64
	shard int
	step  string
}

// tracer collects the spans of one traced round.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	events atomic.Int64
	// reqBytes and respBytes sum the JSON bodies of submit requests and
	// responses on the daemon (frame envelopes excluded).
	reqBytes, respBytes atomic.Int64

	mu    sync.Mutex
	spans []span
	marks []schedMark
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64            { return int64(time.Since(t.epoch)) }
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }
func (t *tracer) mark(m schedMark)      { t.mu.Lock(); t.marks = append(t.marks, m); t.mu.Unlock() }

// add records s while the tracer is on: spans of setup exchanges and of
// reads after the timed phase are dropped.
func (t *tracer) add(s span) {
	if t.on.Load() {
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

func (t *tracer) call(name string, start int64, bytes int) {
	t.add(span{Name: name, Start: start, End: t.now(), Bytes: bytes})
}

// Emit implements obs.Sink.
func (t *tracer) Emit(e obs.Event) {
	if !t.on.Load() {
		return
	}
	t.events.Add(1)
	end := t.at(e.Time)
	switch e.Kind {
	case obs.KindStep:
		t.add(span{Name: spanStep + string(e.Stage) + "/" + e.Step, Ex: e.ExchangeID,
			Start: end - int64(e.Elapsed), End: end})
	case obs.KindRoute:
		t.add(span{Name: spanRoute + e.Step, Ex: e.ExchangeID, Start: end, End: end})
	case obs.KindExchange:
		if e.Step == obs.StepFinished || e.Step == obs.StepFailed {
			t.add(span{Name: spanLifecycle, Ex: e.ExchangeID, Start: end - int64(e.Elapsed), End: end})
		}
	case obs.KindSched:
		if e.Step != obs.StepCompleted {
			t.mark(schedMark{seq: e.Seq, at: end, shard: e.Shard, step: e.Step})
		}
	}
}

// tracedSystem times every call into a back end that does work.
type tracedSystem struct {
	backend.System
	t *tracer
}

func (s tracedSystem) Submit(ctx context.Context, wire []byte) error {
	start := s.t.now()
	err := s.System.Submit(ctx, wire)
	s.t.call(spanBackend+"submit", start, len(wire))
	return err
}

func (s tracedSystem) Extract(ctx context.Context) ([]byte, bool, error) {
	start := s.t.now()
	wire, ok, err := s.System.Extract(ctx)
	s.t.call(spanBackend+"extract", start, len(wire))
	return wire, ok, err
}

func (s tracedSystem) ExtractByPO(ctx context.Context, poID string) ([]byte, bool, error) {
	start := s.t.now()
	wire, ok, err := s.System.ExtractByPO(ctx, poID)
	s.t.call(spanBackend+"extract", start, len(wire))
	return wire, ok, err
}

func (s tracedSystem) ExtractInvoiceByPO(ctx context.Context, poID string) ([]byte, bool, error) {
	start := s.t.now()
	wire, ok, err := s.System.ExtractInvoiceByPO(ctx, poID)
	s.t.call(spanBackend+"extract-invoice", start, len(wire))
	return wire, ok, err
}

func (s tracedSystem) Process(ctx context.Context) (int, error) {
	start := s.t.now()
	n, err := s.System.Process(ctx)
	s.t.call(spanBackend+"process", start, 0)
	return n, err
}

// tracedFS times the journal's writes and fsyncs.
type tracedFS struct {
	journal.FS
	t *tracer
}

func (f tracedFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, t: f.t}, nil
}

type tracedFile struct {
	journal.File
	t *tracer
}

func (f tracedFile) Write(p []byte) (int, error) {
	start := f.t.now()
	n, err := f.File.Write(p)
	f.t.call(spanJrnWrite, start, n)
	return n, err
}

func (f tracedFile) Sync() error {
	start := f.t.now()
	err := f.File.Sync()
	f.t.call(spanJrnSync, start, 0)
	return err
}

// link gives every span an ID and a parent, derives the sched.wait spans,
// and returns the spans in recording order. Parents:
//   - hub.lifecycle → the exchange's client.submit span on the daemon,
//     else its exchange span; client.submit and verify → the exchange span;
//   - steps and routes → their exchange's lifecycle span;
//   - replay calls → the round's replay span.
//
// Queue waits, back-end calls, journal calls and trace reads stay roots:
// the scheduler's events, the back ends and the journal's filesystem are
// not told which exchange they serve, and a read is not part of one.
func (t *tracer) link() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, t.waits()...)
	spans := t.spans
	exch, client, life := map[string]int{}, map[string]int{}, map[string]int{}
	replay := 0
	for i := range spans {
		s := &spans[i]
		s.ID = i + 1
		switch s.Name {
		case spanExchange:
			exch[s.Ex] = s.ID
		case spanClient:
			client[s.Ex] = s.ID
		case spanLifecycle:
			life[s.Ex] = s.ID
		case spanReplay:
			replay = s.ID
		}
	}
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == spanLifecycle:
			if id, ok := client[s.Ex]; ok {
				s.Parent = id
			} else {
				s.Parent = exch[s.Ex]
			}
		case s.Name == spanClient || s.Name == spanVerify:
			s.Parent = exch[s.Ex]
		case strings.HasPrefix(s.Name, spanStep), strings.HasPrefix(s.Name, spanRoute):
			s.Parent = life[s.Ex]
		case strings.HasPrefix(s.Name, spanReplay+"."):
			s.Parent = replay
		}
	}
	return spans
}

// waits pairs scheduler enqueues with dispatches, first in first out per
// shard (a shard's lane is a FIFO channel), and returns one sched.wait
// span per dispatched job. A job's enqueue event can be emitted just after
// a worker already dispatched it; its wait then counts as zero. Callers
// hold t.mu.
func (t *tracer) waits() []span {
	marks := t.marks
	sort.Slice(marks, func(a, b int) bool { return marks[a].seq < marks[b].seq })
	enq, disp := map[int][]int64{}, map[int][]int64{}
	var out []span
	for _, m := range marks {
		switch m.step {
		case obs.StepEnqueued, obs.StepBypassed:
			enq[m.shard] = append(enq[m.shard], m.at)
		case obs.StepDispatched:
			disp[m.shard] = append(disp[m.shard], m.at)
		default:
			continue
		}
		for len(enq[m.shard]) > 0 && len(disp[m.shard]) > 0 {
			start, end := enq[m.shard][0], disp[m.shard][0]
			enq[m.shard], disp[m.shard] = enq[m.shard][1:], disp[m.shard][1:]
			out = append(out, span{Name: spanWait, Start: min(start, end), End: end})
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of it its
// children cover, indexed by span ID−1.
func selfTimes(spans []span) []int64 {
	kids := map[int][]int{}
	for i := range spans {
		if p := spans[i].Parent; p > 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		self[i] = s.dur() - covered(s.Start, s.End, spans, kids[s.ID])
	}
	return self
}

// covered is how much of [lo, hi] the given spans cover together.
func covered(lo, hi int64, spans []span, idx []int) int64 {
	iv := make([][2]int64, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, lo), min(spans[i].End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64 = 0, lo
	for _, v := range iv {
		a := max(v[0], end)
		if v[1] > a {
			total += v[1] - a
			end = v[1]
		}
	}
	return total
}

// writeSpans writes every traced round's spans as JSON lines.
func writeSpans(path string, rounds [][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Round int `json:"round"`
		span
	}
	for r, spans := range rounds {
		for _, s := range spans {
			if err := enc.Encode(line{Round: r, span: s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wireBytes adds one submit's request and response body sizes, as the
// client and daemon marshal them, when the tracer is on.
func (t *tracer) wireBytes(req server.SubmitRequest, resp *server.SubmitResponse) {
	if !t.on.Load() {
		return
	}
	if b, err := json.Marshal(req); err == nil {
		t.reqBytes.Add(int64(len(b)))
	}
	if b, err := json.Marshal(resp); err == nil {
		t.respBytes.Add(int64(len(b)))
	}
}
