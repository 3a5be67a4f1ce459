package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/formats"
	"repro/internal/journal"
)

var errFake = errors.New("fake failure")

// fakeSystem answers every back-end call with fixed results.
type fakeSystem struct{ err error }

func (f fakeSystem) Name() string                         { return "fake" }
func (f fakeSystem) Format() formats.Format               { return formats.SAPIDoc }
func (f fakeSystem) StoredOrders() int                    { return 7 }
func (f fakeSystem) Submit(context.Context, []byte) error { return f.err }
func (f fakeSystem) Extract(context.Context) ([]byte, bool, error) {
	return []byte("ack"), true, f.err
}
func (f fakeSystem) ExtractByPO(_ context.Context, po string) ([]byte, bool, error) {
	return []byte("ack " + po), po != "", f.err
}
func (f fakeSystem) ExtractInvoiceByPO(_ context.Context, po string) ([]byte, bool, error) {
	return []byte("inv " + po), false, f.err
}
func (f fakeSystem) Process(context.Context) (int, error) { return 3, f.err }

func TestBackendWrapperPassesThrough(t *testing.T) {
	ctx := context.Background()
	for _, err := range []error{nil, errFake} {
		tr := newTracer()
		tr.on.Store(true)
		s := tracedSystem{System: fakeSystem{err: err}, t: tr}
		if got := s.Submit(ctx, []byte("po")); got != err {
			t.Errorf("Submit = %v, want %v", got, err)
		}
		if w, ok, got := s.Extract(ctx); string(w) != "ack" || !ok || got != err {
			t.Errorf("Extract = %q, %v, %v", w, ok, got)
		}
		if w, ok, got := s.ExtractByPO(ctx, "PO-1"); string(w) != "ack PO-1" || !ok || got != err {
			t.Errorf("ExtractByPO = %q, %v, %v", w, ok, got)
		}
		if w, ok, got := s.ExtractInvoiceByPO(ctx, "PO-1"); string(w) != "inv PO-1" || ok || got != err {
			t.Errorf("ExtractInvoiceByPO = %q, %v, %v", w, ok, got)
		}
		if n, got := s.Process(ctx); n != 3 || got != err {
			t.Errorf("Process = %d, %v", n, got)
		}
		if s.Name() != "fake" || s.StoredOrders() != 7 {
			t.Errorf("Name/StoredOrders = %q/%d", s.Name(), s.StoredOrders())
		}
		if len(tr.spans) != 5 {
			t.Errorf("recorded %d spans, want 5", len(tr.spans))
		}
	}
}

// fakeFS opens fakeFiles, or fails.
type fakeFS struct {
	journal.FS
	openErr error
	file    *fakeFile
}

func (f fakeFS) OpenFile(string, int, os.FileMode) (journal.File, error) {
	if f.openErr != nil {
		return nil, f.openErr
	}
	return f.file, nil
}

// fakeFile writes a short prefix and fails as told.
type fakeFile struct {
	buf     bytes.Buffer
	short   int
	err     error
	syncErr error
}

func (f *fakeFile) Write(p []byte) (int, error) {
	n := min(len(p), f.short)
	f.buf.Write(p[:n])
	return n, f.err
}
func (f *fakeFile) Sync() error  { return f.syncErr }
func (f *fakeFile) Close() error { return nil }

func TestJournalWrapperPassesThrough(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	if _, err := (tracedFS{FS: fakeFS{openErr: errFake}, t: tr}).OpenFile("x", 0, 0); err != errFake {
		t.Fatalf("OpenFile error = %v, want %v", err, errFake)
	}
	ff := &fakeFile{short: 3, err: errFake, syncErr: os.ErrClosed}
	f, err := tracedFS{FS: fakeFS{file: ff}, t: tr}.OpenFile("x", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("record")); n != 3 || err != errFake || ff.buf.String() != "rec" {
		t.Errorf("Write = %d, %v (wrote %q), want 3, %v", n, err, ff.buf.String(), errFake)
	}
	if err := f.Sync(); err != os.ErrClosed {
		t.Errorf("Sync = %v, want %v", err, os.ErrClosed)
	}
	if len(tr.spans) != 2 || tr.spans[0].Name != spanJrnWrite || tr.spans[0].Bytes != 3 || tr.spans[1].Name != spanJrnSync {
		t.Errorf("spans = %+v", tr.spans)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false}, // p50 of 19 has 9 beyond it
		{20, 50, true},
		{100, 90, true},
		{199, 90, true}, // p95 of 199 has 9 beyond it
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n, ladder)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %v; want p%g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - (rank(c.n, got) + 1); beyond < minBeyond {
				t.Errorf("n=%d: p%g has %d samples beyond it", c.n, got, beyond)
			}
		}
	}
}

func TestSameSeedSameDocuments(t *testing.T) {
	c := newCodecs()
	for _, wl := range workloads[:2] {
		wl.perRound = 27
		a, err := workloadDocs(c, wl, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := workloadDocs(newCodecs(), wl, 11)
		if err != nil {
			t.Fatal(err)
		}
		other, err := workloadDocs(c, wl, 12)
		if err != nil {
			t.Fatal(err)
		}
		differs := false
		ids := map[string]bool{}
		for i := range a {
			if !bytes.Equal(a[i].wire, b[i].wire) || a[i].poID != b[i].poID || a[i].lines != b[i].lines {
				t.Fatalf("%s: document %d differs between two runs of seed 11", wl.name, i)
			}
			if l := a[i].lines; l < wl.minLines || l > wl.maxLines {
				t.Errorf("%s: document %d has %d lines", wl.name, i, l)
			}
			if ids[a[i].poID] {
				t.Errorf("%s: PO ID %s repeats", wl.name, a[i].poID)
			}
			ids[a[i].poID] = true
			if i < setupDocs && !bytes.Equal(a[i].wire, other[i].wire) {
				t.Errorf("%s: set-up document %d differs between seeds 11 and 12", wl.name, i)
			}
			differs = differs || !bytes.Equal(a[i].wire, other[i].wire)
		}
		if !differs {
			t.Errorf("%s: seeds 11 and 12 gave the same documents", wl.name)
		}
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 20}, {Start: 30, End: 40}, {Start: 95, End: 120}}
	if got := covered(0, 100, spans, []int{0, 1, 2, 3}); got != 20+10+5 {
		t.Errorf("covered = %d, want 35", got)
	}
}

// TestMetricsMatchBenchmarkJSON holds the metric names and units the
// benchmark prints to the lists in the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	rt := readRuntime()
	r := &round{n: 1000, wall: time.Second, cpu: time.Second, rt0: rt, rt1: rt, retained: 1 << 20, setup: time.Millisecond}
	for i := 0; i < 1000; i++ {
		r.lat = append(r.lat, float64(i))
		r.readLat = append(r.readLat, float64(i))
	}
	check := func(kind string, want []struct{ Name, Unit string }, got map[string]metric) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for _, w := range want {
			if m, ok := got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("%s: %s printed as %+v (present %v), want unit %q", kind, w.Name, m, ok, w.Unit)
			}
		}
	}
	e2e := map[string]metric{}
	ref := float64(refRecord)
	if err := endToEnd([]*round{r}, nil, hostSpeed([]probeTime{{ref, ref}}), e2e, map[string]any{}); err != nil {
		t.Fatal(err)
	}
	check("end_to_end", spec.EndToEnd, e2e)
	layers := map[string]metric{}
	traced := &round{traced: true, n: 10, wall: time.Second}
	l := &ledger{}
	l.add(traced)
	l.replayed = 10
	if err := layerMetrics([]*round{r, traced}, l, layers, map[string]any{}); err != nil {
		t.Fatal(err)
	}
	check("per_layer", spec.PerLayer, layers)
}

// On a host that runs the probe twice as slowly as the reference host,
// every time is halved and throughput doubled; counts are left alone.
func TestTimesScaledToReferenceHost(t *testing.T) {
	rt := readRuntime()
	r := &round{n: 1000, wall: time.Second, cpu: 2 * time.Second, rt0: rt, rt1: rt, setup: 4 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		r.lat = append(r.lat, 8)
		r.readLat = append(r.readLat, 2)
	}
	ref := float64(refRecord)
	slow := hostSpeed([]probeTime{{ref, ref}, {2 * ref, 2 * ref}, {2 * ref, 3 * ref}, {3 * ref, 2 * ref}, {2 * ref, 2 * ref}})
	if slow.wall != 0.5 || slow.cpu != 0.5 || slow.probes != 5 {
		t.Fatalf("hostSpeed = %+v, want wall and cpu scale 0.5 from the probes' medians", slow)
	}
	m := map[string]metric{}
	ctxLine := map[string]any{}
	if err := endToEnd([]*round{r}, nil, slow, m, ctxLine); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"throughput_eps": 2000, "latency_p50_ms": 4, "latency_p99_ms": 4, "cpu_us_per_ex": 1000,
		"setup_s": 0.002, "read_p50_ms": 1, "read_p99_ms": 1,
	}
	for name, v := range want {
		if got := m[name].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
		if got := ctxLine["measured"].(map[string]metric)[name].Value; name != "throughput_eps" && got != 2*v || name == "throughput_eps" && got != v/2 {
			t.Errorf("measured %s = %v, want it unscaled", name, got)
		}
	}
	if got := m["allocs_per_ex"].Value; got != 0 {
		t.Errorf("allocs_per_ex = %v, want 0", got)
	}
}
