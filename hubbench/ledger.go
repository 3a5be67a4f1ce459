package main

import (
	"fmt"
	"strings"
	"time"
)

// ledger sums one traced run's spans by layer. The layers partition the
// exchange spans: unattributed + verify + server overhead (daemon) + queue
// wait + engine + steps (rules among them) + back-end calls. Queue waits
// and back-end calls name no exchange, so their totals are taken off the
// spans that hold them: waits off the exchange's self time (the daemon's
// client.submit self time), back-end calls off the application binding's
// steps, the only steps that call a back end.
type ledger struct {
	n                int
	exchange, exSelf int64 // exchange spans: total and self time, ns
	verify           int64
	rtt, clientSelf  int64 // daemon client.submit spans: total and self time
	engine           int64 // lifecycle spans' self time
	waits            timing
	waitSum          int64
	stage            map[string]int64 // step self time by stage, rules excluded
	rules            int64
	steps, routes    int
	backendCalls     int
	backend          int64
	jWrites, jBytes  int
	jWrite           int64
	syncs            timing
	events           int64
	skew, instances  float64
	reqB, respB      int64
	decode, encode   int64
	xform            int64
	traced           int
	replayed         int
}

func (l *ledger) add(r *round) {
	if l.stage == nil {
		l.stage = map[string]int64{}
	}
	l.traced++
	l.n += r.n
	self := selfTimes(r.spans)
	for i := range r.spans {
		s := &r.spans[i]
		switch {
		case s.Name == spanExchange:
			l.exchange += s.dur()
			l.exSelf += self[i]
		case s.Name == spanVerify:
			l.verify += s.dur()
		case s.Name == spanClient:
			l.rtt += s.dur()
			l.clientSelf += self[i]
		case s.Name == spanLifecycle:
			l.engine += self[i]
		case s.Name == spanWait:
			l.waits = append(l.waits, float64(s.dur())/1e6)
			l.waitSum += s.dur()
		case strings.HasPrefix(s.Name, spanStep):
			l.steps++
			stage, step, _ := strings.Cut(strings.TrimPrefix(s.Name, spanStep), "/")
			if stage == "private" && step == rulesStep {
				l.rules += self[i]
			} else {
				l.stage[stage] += self[i]
			}
		case strings.HasPrefix(s.Name, spanRoute):
			l.routes++
		case strings.HasPrefix(s.Name, spanBackend):
			l.backendCalls++
			l.backend += s.dur()
		case s.Name == spanJrnWrite:
			l.jWrites++
			l.jBytes += s.Bytes
			l.jWrite += s.dur()
		case s.Name == spanJrnSync:
			l.syncs = append(l.syncs, float64(s.dur())/1e6)
		}
	}
	l.events += r.events
	l.skew += r.skew
	l.instances += r.instances
	l.reqB += r.reqB
	l.respB += r.respB
	l.decode += r.replayDecode
	l.encode += r.replayEncode
	l.xform += r.replayXform
	l.replayed += r.replayN
}

// layerMetrics derives the per-layer metrics of a traced run: span-based
// ones from the ledger of its traced rounds, Go runtime ones and the
// untraced side of the tracing overhead from its untraced rounds.
func layerMetrics(rounds []*round, l *ledger, m map[string]metric, ctxLine map[string]any) error {
	var un int
	var uwall, twall time.Duration
	var gcCPU, allCPU, cycles float64
	var pauses, schedLat histDelta
	for _, r := range rounds {
		if r.traced {
			twall += r.wall
			continue
		}
		un += r.n
		uwall += r.wall
		gcCPU += r.rt1.num(mGCCPU) - r.rt0.num(mGCCPU)
		allCPU += r.rt1.num(mTotalCPU) - r.rt0.num(mTotalCPU)
		cycles += r.rt1.num(mGCCycles) - r.rt0.num(mGCCycles)
		pauses.add(deltaHist(r.rt0.hist(mGCPauses), r.rt1.hist(mGCPauses)))
		schedLat.add(deltaHist(r.rt0.hist(mSchedLat), r.rt1.hist(mSchedLat)))
	}
	if l.n == 0 || un == 0 {
		return fmt.Errorf("traced run needs traced and untraced rounds (traced %d, untraced %d exchanges)", l.n, un)
	}
	n := float64(l.n)
	us := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	waits, syncs := l.waits.sorted(), l.syncs.sorted()
	perSync := 0.0
	if len(syncs) > 0 {
		perSync = n / float64(len(syncs))
	}
	gcFrac := 0.0
	if allCPU > 0 {
		gcFrac = gcCPU / allCPU
	}
	// server is the daemon's round trip less the hub's lifecycle and the
	// queue wait; unattributed is what is left of the exchange span.
	app := l.stage["app"] - l.backend
	server, unattributed := int64(0), l.exSelf-l.waitSum
	if l.rtt > 0 {
		server, unattributed = l.clientSelf-l.waitSum, l.exSelf
	}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("sched.wait_p50_ms", percentile(waits, 50), "ms")
	set("sched.wait_p99_ms", percentile(waits, 99), "ms")
	set("sched.shard_skew", l.skew/float64(l.traced), "ratio")
	set("wf.public_us_per_ex", us(l.stage["public"]), "us")
	set("wf.binding_us_per_ex", us(l.stage["binding"]), "us")
	set("wf.private_us_per_ex", us(l.stage["private"]), "us")
	set("wf.app_us_per_ex", us(app), "us")
	set("wf.engine_us_per_ex", us(l.engine), "us")
	set("wf.steps_per_ex", float64(l.steps)/n, "count")
	set("core.route_hops_per_ex", float64(l.routes)/n, "count")
	set("rules.us_per_ex", us(l.rules), "us")
	set("wfstore.instances_per_ex", l.instances/float64(l.traced), "count")
	set("formats.decode_us_per_ex", float64(l.decode)/1e3/float64(l.replayed), "us")
	set("formats.encode_us_per_ex", float64(l.encode)/1e3/float64(l.replayed), "us")
	set("transform.us_per_ex", float64(l.xform)/1e3/float64(l.replayed), "us")
	set("backend.calls_per_ex", float64(l.backendCalls)/n, "count")
	set("backend.us_per_ex", us(l.backend), "us")
	set("obs.events_per_ex", float64(l.events)/n, "count")
	set("journal.writes_per_ex", float64(l.jWrites)/n, "count")
	set("journal.bytes_per_ex", float64(l.jBytes)/n, "B")
	set("journal.ex_per_fsync", perSync, "count")
	set("journal.write_us_per_ex", us(l.jWrite), "us")
	set("journal.fsync_p50_ms", percentile(syncs, 50), "ms")
	set("journal.fsync_p99_ms", percentile(syncs, 99), "ms")
	set("server.req_bytes_per_ex", float64(l.reqB)/n, "B")
	set("server.resp_bytes_per_ex", float64(l.respB)/n, "B")
	set("server.overhead_us_per_ex", us(server), "us")
	set("runtime.gc_cpu_frac", gcFrac, "ratio")
	set("runtime.gc_cycles_per_kex", cycles*1000/float64(un), "count")
	set("runtime.gc_pause_p99_ms", pauses.percentile(99)*1e3, "ms")
	set("runtime.sched_latency_p99_ms", schedLat.percentile(99)*1e3, "ms")
	set("core.unattributed_us_per_ex", us(unattributed), "us")
	set("trace.throughput_ratio", (n/twall.Seconds())/(float64(un)/uwall.Seconds()), "ratio")

	for name, t := range map[string]timing{"sched_wait": waits, "journal_fsync": syncs} {
		top, ok := tailPercentile(len(t), ladder)
		ctxLine[name+"_samples"] = map[string]any{"n": len(t), "tail": map[bool]string{true: fmt.Sprintf("p%g", top), false: "none"}[ok]}
	}
	// The exchange span's parts; they add back up to exchange_us.
	ctxLine["ledger_us_per_ex"] = map[string]float64{
		"exchange":     us(l.exchange),
		"unattributed": us(unattributed),
		"verify":       us(l.verify),
		"server":       us(server),
		"sched_wait":   us(l.waitSum),
		"engine":       us(l.engine),
		"steps":        us(l.stage["public"] + l.stage["binding"] + l.stage["private"] + app + l.rules),
		"backend":      us(l.backend),
	}
	return nil
}
