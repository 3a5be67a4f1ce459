package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/transform"
)

// document is one inbound purchase order in its sender's wire format,
// together with what a correct acknowledgment of it must carry.
type document struct {
	partner     string
	protocol    formats.Format
	backendName string
	backend     formats.Format // the native format of the order's back end
	poID        string
	lines       int
	wire        []byte
}

// codecs holds the codec and transform registries the benchmark encodes
// requests, checks acknowledgments and replays documents with. They are
// the hub's own registries, built independently of any hub.
type codecs struct {
	fmts *formats.Registry
	xf   *transform.Registry
}

func newCodecs() codecs {
	xf := &transform.Registry{}
	transform.RegisterAll(xf)
	return codecs{fmts: core.NewCodecRegistry(), xf: xf}
}

// encodePO renders a normalized order in the partner protocol's wire form.
func (c codecs) encodePO(protocol formats.Format, po *doc.PurchaseOrder) ([]byte, error) {
	native, err := c.xf.FromNormalized(protocol, doc.TypePO, po)
	if err != nil {
		return nil, err
	}
	codec, err := c.fmts.Lookup(protocol, doc.TypePO)
	if err != nil {
		return nil, err
	}
	return codec.Encode(native)
}

// decodePOA parses a partner-protocol acknowledgment back to the
// normalized model.
func (c codecs) decodePOA(protocol formats.Format, wire []byte) (*doc.PurchaseOrderAck, error) {
	codec, err := c.fmts.Lookup(protocol, doc.TypePOA)
	if err != nil {
		return nil, err
	}
	native, err := codec.Decode(wire)
	if err != nil {
		return nil, err
	}
	nd, err := c.xf.ToNormalized(protocol, doc.TypePOA, native)
	if err != nil {
		return nil, err
	}
	poa, ok := nd.(*doc.PurchaseOrderAck)
	if !ok {
		return nil, fmt.Errorf("%s POA decoded to %T", protocol, nd)
	}
	return poa, nil
}

// checkPOA reports why poa is not a correct acknowledgment of d (nil when
// it is): it must name d's order and answer every one of its lines.
func (d *document) checkPOA(poa *doc.PurchaseOrderAck) error {
	if poa.POID != d.poID {
		return fmt.Errorf("POA acknowledges %q, want %q", poa.POID, d.poID)
	}
	if len(poa.Lines) != d.lines {
		return fmt.Errorf("POA for %s has %d lines, want %d", d.poID, len(poa.Lines), d.lines)
	}
	return nil
}

// partners returns the hub's partners in round-robin order: TP1 (EDI X12),
// TP2 (RosettaNet), TP3 (OAGIS), each with its back end's native format.
func partners() ([]core.TradingPartner, map[string]formats.Format, error) {
	m, err := core.PaperFigure14Model()
	if err != nil {
		return nil, nil, err
	}
	ps := append(append([]core.TradingPartner(nil), m.Partners...), core.Figure15Partner())
	backends := map[string]formats.Format{}
	for _, b := range m.Backends {
		backends[b.Name] = b.Format
	}
	return ps, backends, nil
}

// seller is the hub's own party on every generated order.
var seller = doc.Party{ID: "HUB", Name: "Widget Inc", DUNS: "999999999"}

// setupSeed generates the set-up orders of every run.
const setupSeed = 0

// workloadDocs returns a run's documents: setupDocs set-up orders that are
// the same whatever the seed, so setup_s times the same work in every run
// (an inbound-large order has 50 to 150 lines), then wl.perRound timed
// orders from seed. Each partner's generator numbers its orders, and the
// set-up orders take the first number of each, so no PO ID repeats.
func workloadDocs(c codecs, wl workload, seed int64) ([]document, error) {
	large := wl.minLines > 6
	setup, err := genDocs(c, setupSeed, setupDocs, wl.minLines, wl.maxLines, large)
	if err != nil {
		return nil, err
	}
	docs, err := genDocs(c, seed, setupDocs+wl.perRound, wl.minLines, wl.maxLines, large)
	if err != nil {
		return nil, err
	}
	copy(docs, setup)
	return docs, nil
}

// genDocs builds n wire documents from seed: partner i%3 sends document i,
// each partner's orders come from its own doc.Generator, and an order has
// between minLines and maxLines lines. Orders longer than the generator's
// 1–6 lines take their extra lines from further generated orders. With
// large set, every order must reach its partner's approval threshold.
func genDocs(c codecs, seed int64, n, minLines, maxLines int, large bool) ([]document, error) {
	ps, backends, err := partners()
	if err != nil {
		return nil, err
	}
	gens := make([]*doc.Generator, len(ps))
	for i := range gens {
		gens[i] = doc.NewGenerator(seed*int64(len(ps)) + int64(i))
	}
	sizes := rand.New(rand.NewSource(seed))
	docs := make([]document, n)
	for i := range docs {
		w := i % len(ps)
		p := ps[w]
		buyer := doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS}
		po := gens[w].PO(buyer, seller)
		if minLines > 6 {
			want := minLines + sizes.Intn(maxLines-minLines+1)
			for len(po.Lines) < want {
				po.Lines = append(po.Lines, gens[w].PO(buyer, seller).Lines...)
			}
			po.Lines = po.Lines[:want]
			for j := range po.Lines {
				po.Lines[j].Number = j + 1
			}
		}
		if large && po.Amount() < p.ApprovalThreshold {
			return nil, fmt.Errorf("order %s totals %.2f, below %s's approval threshold %.0f",
				po.ID, po.Amount(), p.ID, p.ApprovalThreshold)
		}
		wire, err := c.encodePO(p.Protocol, po)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", po.ID, err)
		}
		docs[i] = document{
			partner: p.ID, protocol: p.Protocol, backendName: p.Backend, backend: backends[p.Backend],
			poID: po.ID, lines: len(po.Lines), wire: wire,
		}
	}
	return docs, nil
}
