// Command hubbench is the hub's benchmark. It drives the paper's Sec. 4
// chain (public process → binding → private process → application
// binding) through the hub's public API and prints the end-to-end metrics
// of one workload, or with -trace 1 the per-layer metrics of a traced run.
//
// Usage, from the repository root:
//
//	bash hubbench/run.sh --workload inbound-small --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// run's context. A run with any wrong or missing result exits with 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hubbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: inbound-small, inbound-large or daemon-journal")
	seed := fs.Int64("seed", 1, "seed the documents are generated from")
	seconds := fs.Int("seconds", 10, "timed seconds to measure for")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for the journal and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "hubbench: need -workload %s, -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	res, ctxLine, err := measure(context.Background(), *wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(stderr, "hubbench: %v\n", err)
		return 1
	}
	// A failed exchange or read has an infinite latency, which JSON cannot
	// carry: a percentile that lands on one reads as the largest float.
	for name, m := range res.Metrics {
		if math.IsInf(m.Value, 1) {
			res.Metrics[name] = metric{math.MaxFloat64, m.Unit}
		}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"context": ctxLine}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs rounds of wl until their timed phases add up to d — at
// least two, enough for a p99 of the reads, and in the traced run
// alternately untraced and traced — and derives the metrics. Before each
// round it probes the host's speed and sets a hub up setupReps extra
// times: the host's speed changes from one tenth of a second to the next,
// so probes and set-ups spread over the whole run.
func measure(ctx context.Context, wl workload, seed int64, d time.Duration, traced bool, out string) (*result, map[string]any, error) {
	c := newCodecs()
	docs, err := workloadDocs(c, wl, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("generate documents: %w", err)
	}
	var probes []probeTime
	var setups []float64
	res := &result{Metrics: map[string]metric{}}
	var rounds []*round
	var l ledger
	var spans [][]span
	var timed time.Duration
	reads := 0
	for i := 0; timed < d || i < 2 || !supports99(reads); i++ {
		probes = append(probes, probe())
		for j := range setupReps {
			s, took, err := setUp(ctx, wl, c, docs, filepath.Join(out, fmt.Sprintf("%s-seed%d-setup%d-%d", wl.name, seed, i, j)), nil)
			if err != nil {
				return nil, nil, fmt.Errorf("round %d: setup %d: %w", i, j, err)
			}
			if err := s.stop(); err != nil {
				return nil, nil, fmt.Errorf("round %d: setup %d: stop hub: %w", i, j, err)
			}
			setups = append(setups, took.Seconds())
		}
		probes = append(probes, probe())
		dir := filepath.Join(out, fmt.Sprintf("%s-seed%d-round%d", wl.name, seed, i))
		r, err := runRound(ctx, wl, c, docs, dir, seed, traced && i%2 == 1)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", i, err)
		}
		res.Attempted += r.n + len(r.readLat)
		res.Failed += r.failed
		for _, err := range r.errs {
			fmt.Fprintf(os.Stderr, "hubbench: round %d: %v\n", i, err)
		}
		if len(r.errs) > 0 {
			res.Failed = max(res.Failed, 1)
		}
		if r.traced {
			l.add(r)
			if len(spans) < keptSpanRounds {
				spans = append(spans, r.spans)
			}
			r.spans = nil
		}
		rounds = append(rounds, r)
		timed += r.wall
		if !r.traced {
			reads += len(r.readLat)
		}
	}
	res.Correct = res.Failed == 0
	sp := hostSpeed(probes)

	ctxLine := map[string]any{
		"workload":      wl.name,
		"seed":          seed,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"rounds":        len(rounds),
		"per_round":     wl.perRound,
		"outstanding":   window,
		"order_lines":   fmt.Sprintf("%d-%d", wl.minLines, wl.maxLines),
		"traffic":       "in-process Hub.DoAsync",
		"journal":       "none",
		"load":          "closed loop, one process",
		"timed_seconds": timed.Seconds(),
		"traced":        traced,
		"host_speed": map[string]any{
			"probes":               sp.probes,
			"probe_wall_ns_record": sp.wallNs,
			"probe_cpu_ns_record":  sp.cpuNs,
			"ref_ns_record":        float64(refRecord),
			"wall_scale":           sp.wall,
			"cpu_scale":            sp.cpu,
		},
		"percentile_rule": fmt.Sprintf("nearest rank; tail = highest of %v with >= %d samples beyond it", ladder, minBeyond),
	}
	if wl.daemon {
		ctxLine["traffic"] = fmt.Sprintf("server.Daemon over loopback TCP 127.0.0.1, %d client connections", min(2, runtime.NumCPU()))
		ctxLine["journal"] = "fsync=batched on " + fsKind(out)
	}
	if !traced {
		return res, ctxLine, endToEnd(rounds, setups, sp, res.Metrics, ctxLine)
	}
	if err := layerMetrics(rounds, &l, res.Metrics, ctxLine); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	ctxLine["spans"] = path
	return res, ctxLine, nil
}

// supports99 reports whether n samples put at least minBeyond above p99.
func supports99(n int) bool {
	top, ok := tailPercentile(n, ladder)
	return ok && top >= 99
}

// keptSpanRounds is how many traced rounds' spans are written out; later
// traced rounds only add to the ledger.
const keptSpanRounds = 1

// endToEnd derives the end-to-end metrics. Throughput, CPU and the
// exchange latency percentiles are medians over rounds of each round's
// value, so a burst of load from outside the benchmark moves one round,
// not the result. So are the read percentiles where every round holds
// enough reads for its own p99 (in process); a daemon round holds too few,
// and there reads are pooled over rounds. Setup time is the median of
// every setup.
// Times are scaled to the reference host by sp (see calib.go); the
// context line keeps them as measured.
func endToEnd(rounds []*round, setups []float64, sp speed, m map[string]metric, ctxLine map[string]any) error {
	var tput, p50, p99, cpu, retained, r50, r99 []float64
	var n int
	var allocs, allocB float64
	var reads timing
	perRound := true
	for i, r := range rounds {
		lat := r.lat.sorted()
		if !supports99(len(lat)) {
			return fmt.Errorf("round %d: %d exchanges do not support p99", i, len(lat))
		}
		n += r.n
		tput = append(tput, float64(r.n)/r.wall.Seconds())
		p50 = append(p50, percentile(lat, 50))
		p99 = append(p99, percentile(lat, 99))
		cpu = append(cpu, float64(r.cpu.Microseconds())/float64(r.n))
		allocs += r.rt1.num(mAllocObjects) - r.rt0.num(mAllocObjects)
		allocB += r.rt1.num(mAllocBytes) - r.rt0.num(mAllocBytes)
		retained = append(retained, r.retained/1024/float64(r.n))
		setups = append(setups, r.setup.Seconds())
		reads = append(reads, r.readLat...)
		rl := r.readLat.sorted()
		perRound = perRound && supports99(len(rl))
		r50 = append(r50, percentile(rl, 50))
		r99 = append(r99, percentile(rl, 99))
	}
	reads = reads.sorted()
	if !supports99(len(reads)) {
		return fmt.Errorf("%d reads do not support p99", len(reads))
	}
	top, _ := tailPercentile(len(reads), ladder)
	readP50, readP99 := percentile(reads, 50), percentile(reads, 99)
	if perRound {
		readP50, readP99 = median(r50), median(r99)
	}
	measured := map[string]metric{
		"throughput_eps": {median(tput), "ex/s"},
		"latency_p50_ms": {median(p50), "ms"},
		"latency_p99_ms": {median(p99), "ms"},
		"cpu_us_per_ex":  {median(cpu), "us"},
		"setup_s":        {median(setups), "s"},
		"read_p50_ms":    {readP50, "ms"},
		"read_p99_ms":    {readP99, "ms"},
	}
	for name, v := range measured {
		switch name {
		case "throughput_eps":
			v.Value /= sp.wall
		case "cpu_us_per_ex":
			v.Value *= sp.cpu
		default:
			v.Value *= sp.wall
		}
		m[name] = v
	}
	m["allocs_per_ex"] = metric{allocs / float64(n), "count"}
	m["alloc_kb_per_ex"] = metric{allocB / 1024 / float64(n), "KB"}
	m["retained_kb_per_ex"] = metric{median(retained), "KB"}
	ctxLine["measured"] = measured
	ctxLine["exchanges"] = n
	ctxLine["latency_samples"] = map[string]any{"per_round": len(rounds[0].lat), "rounds": len(rounds)}
	ctxLine["read_samples"] = map[string]any{"n": len(reads), "per_round": perRound, "tail": fmt.Sprintf("p%g", top), "tail_ms": percentile(reads, top)}
	ctxLine["setup_samples"] = len(setups)
	ctxLine["throughput_rounds"] = tput
	var steal []float64
	for _, r := range rounds {
		steal = append(steal, r.steal.Seconds()/(r.wall.Seconds()*float64(runtime.NumCPU())))
	}
	// The share of CPU time the hypervisor took during the timed phases:
	// on a shared host it moves every timing, and no metric corrects for it.
	ctxLine["steal_share_rounds"] = steal
	return nil
}

// fsKind names the filesystem holding dir (created if missing) and whether
// it is backed by a local disk.
func fsKind(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown filesystem"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	names := map[int64]string{
		0xef53: "ext2/3/4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x794c7630: "overlayfs",
		0x01021994: "tmpfs (memory, not disk)", 0x6969: "nfs (network, not local)",
	}
	if s, ok := names[int64(st.Type)]; ok {
		return s
	}
	return fmt.Sprintf("filesystem magic %#x", st.Type)
}
