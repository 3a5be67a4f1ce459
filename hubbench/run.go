package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/doc"
)

// workload is one traffic mix against the shared hub.
type workload struct {
	name               string
	minLines, maxLines int
	// perRound is how many timed exchanges each round runs. Every round
	// starts a fresh hub, so the hub's retained state grows along the same
	// path in every round and every run.
	perRound int
	// readEvery: every readEvery-th exchange is followed by a trace read
	// of an exchange that has already finished. With 0, the reads run
	// after the timed phase instead, one per exchange, on the idle hub: an
	// in-process read takes microseconds under one lock the hub's workers
	// also take for every event, so under load its tail would only tell
	// whether the read found that lock held and lost its CPU.
	readEvery int
	daemon    bool
}

var workloads = []workload{
	{name: "inbound-small", minLines: 1, maxLines: 6, perRound: 3000},
	{name: "inbound-large", minLines: 50, maxLines: 150, perRound: 1200},
	{name: "daemon-journal", minLines: 1, maxLines: 6, perRound: 2000, readEvery: 10, daemon: true},
}

const (
	// window is the number of exchanges kept outstanding: a closed loop,
	// as partners' gateways hold a bounded number of unacknowledged
	// documents under reliable messaging. It is the hub's worker count
	// (2 shards × 2), which keeps two CPUs busy: with 16 outstanding the
	// throughput was the same, but an exchange's latency was mostly its
	// wait behind the others, and six paired runs' p50 spread three times wider.
	window = 4
	// setupDocs is one first exchange per partner, run before timing.
	setupDocs = 3
	// setupReps is how many extra times a run sets a hub up and tears it
	// down before each round, so setup_s is a median of many.
	setupReps = 2
	// readRepeats is how many times an idle read is repeated, and
	// readsPerGC how many exchanges are read between collections (their
	// copies take about 25 MB).
	readRepeats = 5
	readsPerGC  = 1000
	// recentN bounds the finished exchanges a read picks from. The hub's
	// event collector keeps the last 1024 exchanges, so with window
	// outstanding every pick is still held.
	recentN = 256
)

// round is what one fresh hub measured.
type round struct {
	traced       bool
	n, failed    int    // failed counts failed exchanges, reads and checks
	lat, readLat timing // ms; a failed exchange or read is +Inf
	wall, cpu    time.Duration
	steal        time.Duration // taken by the hypervisor, summed over CPUs
	setup        time.Duration
	rt0, rt1     rtSample // runtime metrics around the timed phase
	retained     float64  // live-heap bytes the timed phase left behind
	errs         []error
	spans        []span  // traced rounds only
	skew         float64 // max/mean of per-shard completed jobs
	instances    float64 // workflow instances stored per exchange
	events       int64   // bus events in the timed phase
	reqB, respB  int64   // submit request and response body bytes (daemon)
	replayDecode int64   // ns
	replayEncode int64
	replayXform  int64
	replayN      int
}

// runRound builds a fresh hub, runs the setup exchanges, times the rest
// of docs as a closed loop, checks the hub's state and tears it down.
func runRound(ctx context.Context, wl workload, c codecs, docs []document, dir string, seed int64, traced bool) (*round, error) {
	r := &round{traced: traced}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	s, setup, err := setUp(ctx, wl, c, docs, dir, tr)
	if err != nil {
		return nil, err
	}
	r.setup = setup
	timed := docs[setupDocs:]

	runtime.GC()
	r.rt0 = readRuntime()
	cpu0, steal0 := cpuTime(), stealTime()
	if tr != nil {
		tr.on.Store(true)
	}
	start := time.Now()
	recent := drive(ctx, s, c, timed, seed, wl.readEvery, r)
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	r.steal = stealTime() - steal0
	r.rt1 = readRuntime()
	if tr != nil {
		tr.on.Store(false)
	}
	runtime.GC()
	r.retained = readRuntime().num(mLiveBytes) - r.rt0.num(mLiveBytes)
	if wl.readEvery == 0 {
		idleReads(ctx, s, seed, recent, r)
	}
	for _, t := range [2]timing{r.lat, r.readLat} {
		for _, v := range t {
			if math.IsInf(v, 1) {
				r.failed++
			}
		}
	}

	bad, err := s.check(docs)
	r.failed += bad
	if err != nil {
		r.errs = append(r.errs, err)
	}
	if tr != nil {
		st := s.hub.Status()
		var total, top int64
		for _, sh := range st.Sched.PerShard {
			total += sh.Completed
			top = max(top, sh.Completed)
		}
		if total > 0 && st.Sched.Shards > 0 {
			r.skew = float64(top) / (float64(total) / float64(st.Sched.Shards))
		}
		ids, err := s.hub.Engine.Store().ListInstances()
		if err != nil {
			r.errs = append(r.errs, fmt.Errorf("list instances: %w", err))
		}
		r.instances = float64(len(ids)) / float64(len(docs))
		r.events = tr.events.Load()
		tr.on.Store(true)
		err = replay(c, timed, tr, r)
		tr.on.Store(false)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("replay: %w", err), s.stop())
		}
		r.reqB, r.respB = tr.reqBytes.Load(), tr.respBytes.Load()
		r.spans = tr.link()
	}
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("stop hub: %w", err)
	}
	return r, nil
}

// setUp builds a fresh hub and runs its first exchange of every partner,
// returning the hub and the time that took. It collects the garbage left
// before it starts the clock, so no set-up pays for an earlier one's.
func setUp(ctx context.Context, wl workload, c codecs, docs []document, dir string, tr *tracer) (*system, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	s, err := startSystem(ctx, wl.daemon, dir, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("start hub: %w", err)
	}
	for i := range docs[:setupDocs] {
		if _, err := s.exchange(ctx, c, 0, &docs[i]); err != nil {
			return nil, 0, errors.Join(fmt.Errorf("setup: %w", err), s.stop())
		}
	}
	return s, time.Since(t0), nil
}

// drive runs docs through s as a closed loop of window outstanding
// exchanges, every readEvery-th of them (if readEvery > 0) followed by a
// trace read. It returns the most recently finished exchanges.
func drive(ctx context.Context, s *system, c codecs, docs []document, seed int64, readEvery int, r *round) *ring {
	r.n = len(docs)
	r.lat = make(timing, len(docs))
	if readEvery > 0 {
		r.readLat = make(timing, len(docs)/readEvery)
	}
	var next atomic.Int64
	recent := &ring{}
	var mu sync.Mutex
	report := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err)
		}
	}
	var wg sync.WaitGroup
	for g := range window {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(docs) {
					return
				}
				t0 := time.Now()
				exID, err := s.exchange(ctx, c, g, &docs[i])
				if err != nil {
					r.lat[i] = math.Inf(1)
					report(err)
				} else {
					r.lat[i] = ms(time.Since(t0))
					recent.push(exID)
				}
				if readEvery > 0 && (i+1)%readEvery == 0 {
					var err error
					if r.readLat[i/readEvery], err = timedRead(ctx, s, g, recent, mix(seed, i)); err != nil {
						report(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	return recent
}

// idleReads reads one finished exchange per timed exchange, one after
// another, on the hub left idle after the timed phase. Such a read takes
// a microsecond or two, so whatever else happens during it sets its time,
// and its tail measured that, not the read:
//   - each read copies the exchange's events, and the collector cycles the
//     copies start would slow the reads they overlap several times over.
//     The collector is paused while reading and run between batches of
//     readsPerGC exchanges instead, so every batch reuses warm memory;
//   - one interrupt or stall of a shared host outlasts a read, so each
//     exchange is read readRepeats times back to back and its read time is
//     the fastest of those. On the idle hub nothing contends for the read.
func idleReads(ctx context.Context, s *system, seed int64, recent *ring, r *round) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r.readLat = make(timing, r.n)
	rep := make(timing, readRepeats)
	for i := range r.readLat {
		if i%readsPerGC == 0 {
			runtime.GC()
		}
		var err error
		for j := range rep {
			if rep[j], err = timedRead(ctx, s, 0, recent, mix(seed, i)); err != nil {
				break
			}
		}
		if err != nil {
			r.readLat[i] = math.Inf(1)
			if len(r.errs) < 5 {
				r.errs = append(r.errs, err)
			}
			continue
		}
		r.readLat[i] = slices.Min(rep)
	}
}

// timedRead reads the exchange of recent that h picks and returns how many
// milliseconds that took, or +Inf when the read failed.
func timedRead(ctx context.Context, s *system, g int, recent *ring, h uint64) (float64, error) {
	id, ok := recent.pick(h)
	if !ok {
		return math.Inf(1), errors.New("read: no finished exchange to read")
	}
	t := time.Now()
	if err := s.read(ctx, g, id); err != nil {
		return math.Inf(1), err
	}
	return ms(time.Since(t)), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ring holds the IDs of the most recently finished exchanges.
type ring struct {
	mu   sync.Mutex
	ids  [recentN]string
	next int
	n    int
}

func (q *ring) push(id string) {
	q.mu.Lock()
	q.ids[q.next] = id
	q.next = (q.next + 1) % recentN
	q.n = min(q.n+1, recentN)
	q.mu.Unlock()
}

// pick returns one of the held IDs, chosen by h.
func (q *ring) pick(h uint64) (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return "", false
	}
	back := int(h%uint64(q.n)) + 1
	return q.ids[(q.next-back+recentN)%recentN], true
}

// mix is a seeded hash of i (splitmix64), so which finished exchange a
// read picks follows from the seed.
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// replay runs the round's documents through the codecs and transforms
// again, outside the hub, timing each call. Per order it makes the calls
// an inbound exchange makes in the hub and its back end: decode the
// partner PO; transform it to normalized and on to the back end's format;
// encode and decode that; build the back end's acknowledgment, transform,
// encode and decode it, transform it to normalized and on to the partner
// protocol; encode the partner POA. That is 3 decodes, 3 encodes and 5
// transforms per order.
func replay(c codecs, docs []document, tr *tracer, r *round) error {
	root := span{Name: spanReplay, Start: tr.now()}
	timed := func(name string, sum *int64, fn func() (any, error)) (any, error) {
		start := tr.now()
		v, err := fn()
		end := tr.now()
		*sum += end - start
		tr.add(span{Name: name, Start: start, End: end})
		return v, err
	}
	decode := func(f doc.DocType, d *document, protocol bool, wire []byte) (any, error) {
		format := d.backend
		if protocol {
			format = d.protocol
		}
		codec, err := c.fmts.Lookup(format, f)
		if err != nil {
			return nil, err
		}
		return timed(spanDecode, &r.replayDecode, func() (any, error) { return codec.Decode(wire) })
	}
	encode := func(f doc.DocType, d *document, protocol bool, native any) ([]byte, error) {
		format := d.backend
		if protocol {
			format = d.protocol
		}
		codec, err := c.fmts.Lookup(format, f)
		if err != nil {
			return nil, err
		}
		v, err := timed(spanEncode, &r.replayEncode, func() (any, error) { return codec.Encode(native) })
		b, _ := v.([]byte)
		return b, err
	}
	xform := func(fn func() (any, error)) (any, error) { return timed(spanTransform, &r.replayXform, fn) }
	for i := range docs {
		d := &docs[i]
		native, err := decode(doc.TypePO, d, true, d.wire)
		if err != nil {
			return err
		}
		nd, err := xform(func() (any, error) { return c.xf.ToNormalized(d.protocol, doc.TypePO, native) })
		if err != nil {
			return err
		}
		po := nd.(*doc.PurchaseOrder)
		bpo, err := xform(func() (any, error) { return c.xf.FromNormalized(d.backend, doc.TypePO, po) })
		if err != nil {
			return err
		}
		bwire, err := encode(doc.TypePO, d, false, bpo)
		if err != nil {
			return err
		}
		if _, err := decode(doc.TypePO, d, false, bwire); err != nil {
			return err
		}
		ack := doc.AckFor(po, "ACK-"+po.ID)
		bpoa, err := xform(func() (any, error) { return c.xf.FromNormalized(d.backend, doc.TypePOA, ack) })
		if err != nil {
			return err
		}
		bwire, err = encode(doc.TypePOA, d, false, bpoa)
		if err != nil {
			return err
		}
		bnative, err := decode(doc.TypePOA, d, false, bwire)
		if err != nil {
			return err
		}
		npoa, err := xform(func() (any, error) { return c.xf.ToNormalized(d.backend, doc.TypePOA, bnative) })
		if err != nil {
			return err
		}
		ppoa, err := xform(func() (any, error) { return c.xf.FromNormalized(d.protocol, doc.TypePOA, npoa) })
		if err != nil {
			return err
		}
		if _, err := encode(doc.TypePOA, d, true, ppoa); err != nil {
			return err
		}
	}
	root.End = tr.now()
	tr.add(root)
	r.replayN = len(docs)
	return nil
}
