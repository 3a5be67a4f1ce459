package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/server"
)

// system is one freshly built hub under test, with its daemon and client
// connections on the daemon-journal workload.
type system struct {
	hub     *core.Hub
	daemon  *server.Daemon
	served  chan error
	clients []*server.Client
	dir     string
	tr      *tracer // nil in untraced rounds
}

// outboundHop is the routing hop that sends an exchange's response to the
// partner: a finished exchange's wire trace holds it.
const outboundHop = "public → network"

// startSystem builds the hub every workload shares — the paper's Figure 14
// model plus Figure 15's third partner on 2 shards × 2 workers — and, for
// the daemon, opens the journal under dir, recovers it, listens on
// loopback and dials one connection per CPU, at most two.
func startSystem(ctx context.Context, daemon bool, dir string, tr *tracer) (*system, error) {
	m, err := core.PaperFigure14Model()
	if err != nil {
		return nil, err
	}
	opts := []core.HubOption{core.WithShards(2), core.WithWorkersPerShard(2)}
	if tr != nil {
		bus := obs.NewBus()
		bus.Attach(tr)
		opts = append(opts, core.WithBus(bus))
	}
	if daemon {
		// A journal left by an interrupted run would be replayed.
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		opts = append(opts,
			core.WithJournal(filepath.Join(dir, "hub.wal")),
			core.WithFsyncPolicy(journal.FsyncBatched))
		if tr != nil {
			opts = append(opts, core.WithJournalFS(tracedFS{FS: journal.OSFS(), t: tr}))
		}
	}
	h, err := core.NewHub(m, opts...)
	if err != nil {
		return nil, err
	}
	s := &system{hub: h, tr: tr}
	if daemon {
		s.dir = dir
	}
	if _, err := h.AddPartner(core.Figure15Partner()); err != nil {
		return nil, s.fail(err)
	}
	if tr != nil {
		h.WrapBackends(func(sys backend.System) backend.System { return tracedSystem{System: sys, t: tr} })
	}
	if !daemon {
		return s, nil
	}
	if _, err := h.Recover(ctx); err != nil {
		return nil, s.fail(fmt.Errorf("recover journal: %w", err))
	}
	h.StartScheduler()
	if s.daemon, err = server.NewDaemon(h, "127.0.0.1:0"); err != nil {
		return nil, s.fail(err)
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.daemon.Serve() }()
	for range min(2, runtime.NumCPU()) {
		c, err := server.Dial(ctx, s.daemon.Addr())
		if err != nil {
			return nil, s.fail(fmt.Errorf("dial daemon: %w", err))
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// fail stops a half-built system and returns err.
func (s *system) fail(err error) error {
	return errors.Join(err, s.stop())
}

// stop shuts the system down and removes its journal: clients close, the
// daemon drains and closes, the scheduler stops.
func (s *system) stop() error {
	var errs []error
	for _, c := range s.clients {
		errs = append(errs, c.Close())
	}
	if s.daemon != nil {
		_, err := s.daemon.DrainAndClose(30 * time.Second)
		errs = append(errs, err, <-s.served)
	}
	s.hub.StopWorkers()
	errs = append(errs, s.hub.CloseJournal())
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}

// exchange submits d through the hub's public API — Hub.DoAsync in
// process, an async Client.Submit on connection g%len(clients) over the
// daemon — and checks the acknowledgment. It returns the exchange ID.
func (s *system) exchange(ctx context.Context, c codecs, g int, d *document) (string, error) {
	var start int64
	if s.tr != nil {
		start = s.tr.now()
	}
	var exID string
	var wire []byte
	if len(s.clients) > 0 {
		req := server.SubmitRequest{
			Kind: string(core.DocWirePO), Protocol: string(d.protocol), Wire: d.wire,
			PartnerID: d.partner, Async: true,
		}
		resp, err := s.clients[g%len(s.clients)].Submit(ctx, req)
		if err != nil {
			return "", fmt.Errorf("submit %s: %w", d.poID, err)
		}
		exID, wire = resp.ExchangeID, resp.Wire
		if s.tr != nil {
			s.tr.add(span{Name: spanClient, Ex: exID, Start: start, End: s.tr.now()})
			s.tr.wireBytes(req, resp)
		}
	} else {
		fut, err := s.hub.DoAsync(ctx, core.Request{
			Kind: core.DocWirePO, Protocol: d.protocol, Wire: d.wire, PartnerID: d.partner,
		})
		if err != nil {
			return "", fmt.Errorf("submit %s: %w", d.poID, err)
		}
		res := fut.Result(ctx)
		if res.Err != nil {
			return "", fmt.Errorf("exchange %s: %w", d.poID, res.Err)
		}
		exID, wire = res.Exchange.ID, res.Wire
	}
	var verify int64
	if s.tr != nil {
		verify = s.tr.now()
	}
	poa, err := c.decodePOA(d.protocol, wire)
	if err == nil {
		err = d.checkPOA(poa)
	}
	if s.tr != nil {
		end := s.tr.now()
		s.tr.add(span{Name: spanVerify, Ex: exID, Start: verify, End: end})
		s.tr.add(span{Name: spanExchange, Ex: exID, Start: start, End: end})
	}
	if err != nil {
		return "", fmt.Errorf("exchange %s (%s): %w", exID, d.poID, err)
	}
	return exID, nil
}

// read fetches the trace of a finished exchange — Hub.Events in process,
// Client.Trace over the daemon — and checks that it shows the exchange
// finished. The wire's trace op returns routing hops only, so there the
// mark of a finished exchange is its outbound hop.
func (s *system) read(ctx context.Context, g int, exID string) error {
	var start int64
	if s.tr != nil {
		start = s.tr.now()
		defer func() { s.tr.add(span{Name: spanRead, Ex: exID, Start: start, End: s.tr.now()}) }()
	}
	if len(s.clients) > 0 {
		tr, err := s.clients[g%len(s.clients)].Trace(ctx, exID)
		if err != nil {
			return fmt.Errorf("trace %s: %w", exID, err)
		}
		if tr.ExchangeID != exID || !slices.Contains(tr.Trace, outboundHop) {
			return fmt.Errorf("trace %s: got exchange %q with hops %q, want its %q hop", exID, tr.ExchangeID, tr.Trace, outboundHop)
		}
		return nil
	}
	for _, e := range s.hub.Events(exID) {
		if e.Kind == obs.KindExchange && e.Step == obs.StepFinished {
			return nil
		}
	}
	return fmt.Errorf("trace %s: no finished event", exID)
}

// check verifies the hub's state after a round: every order stored in its
// back end exactly once, and on the daemon no journaled admission left
// without its outcome. It returns the number of discrepancies found.
func (s *system) check(docs []document) (int, error) {
	want := map[string]int{}
	for i := range docs {
		want[docs[i].backendName]++
	}
	bad := 0
	var errs []error
	for name, n := range want {
		sys, ok := s.hub.Systems[name]
		if !ok {
			return n, fmt.Errorf("back end %s missing", name)
		}
		if got := sys.StoredOrders(); got != n {
			bad += max(got-n, n-got)
			errs = append(errs, fmt.Errorf("back end %s stored %d orders, want %d", name, got, n))
		}
	}
	if s.daemon != nil {
		if p := s.hub.Status().Journal.PendingAdmits; p != 0 {
			bad += p
			errs = append(errs, fmt.Errorf("journal has %d pending admits, want 0", p))
		}
	}
	return bad, errors.Join(errs...)
}
