package main

import (
	"encoding/json"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// On a VM given a few CPUs of a shared host, how fast the host runs the
// same Go code drifts by ±15–30% from minute to minute, at near-zero
// steal. Two runs of the same code a few minutes apart then differ by
// more than any bound a regression check could use.
// So every run also times a fixed amount of reference work that touches no
// hub code, and reports its times scaled to a reference host on which one
// record of that work takes refRecord: a change to the hub moves the
// scaled times exactly as it moves the measured ones, while a slower or
// faster host moves both the hub and the reference work and cancels out.
// The context line keeps the measured values and the scale.

// refRecord is the time one probe record takes on the reference host, per
// goroutine in wall time and per record in CPU time. It fixes only the
// level of the scaled times; any constant would make them as steady.
const refRecord = 15 * time.Microsecond

// probeIters is how many records each of GOMAXPROCS goroutines builds,
// encodes and decodes in one probe: about 0.1 s of wall time on two CPUs.
const probeIters = 5000

// probeTime is one probe's wall and CPU time per record.
type probeTime struct{ wall, cpu float64 } // ns

// speed is the host's speed over a run relative to the reference host:
// a measured time times wall (or cpu) is the time on the reference host.
type speed struct {
	wall, cpu float64
	probes    int
	wallNs    float64 // median probe wall time per record
	cpuNs     float64 // median probe CPU time per record
}

// hostSpeed derives the run's scale from the medians of its probes.
func hostSpeed(probes []probeTime) speed {
	var w, c []float64
	for _, p := range probes {
		w = append(w, p.wall)
		c = append(c, p.cpu)
	}
	s := speed{probes: len(probes), wallNs: median(w), cpuNs: median(c)}
	s.wall = float64(refRecord) / s.wallNs
	s.cpu = float64(refRecord) / s.cpuNs
	return s
}

// probeRecord is the reference work's document: a small order-like record.
type probeRecord struct {
	ID    string            `json:"id"`
	Buyer string            `json:"buyer"`
	Lines []probeLine       `json:"lines"`
	Attrs map[string]string `json:"attrs"`
}

type probeLine struct {
	SKU   string  `json:"sku"`
	Qty   int     `json:"qty"`
	Price float64 `json:"price"`
}

// probeSink keeps the reference work's results reachable, so the compiler
// cannot drop it.
var probeSink int

// probe runs the reference work — building, JSON-encoding and decoding
// order-like records and keeping the last 1024 in a map, with the standard
// library only — on GOMAXPROCS goroutines at once, so it loads the CPUs
// and the garbage collector the way the hub's workers do. Run it with no
// hub alive: it forces a GC first, so the heap it works on is the
// benchmark's own and a change to the hub's memory cannot move it.
func probe() probeTime {
	procs := runtime.GOMAXPROCS(0)
	runtime.GC()
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]int, procs)
	for p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keep := map[string]*probeRecord{}
			for i := range probeIters {
				r := &probeRecord{ID: "PO-" + strconv.Itoa(i), Buyer: "TP" + strconv.Itoa(p), Attrs: map[string]string{}}
				for l := range 1 + i%6 {
					r.Lines = append(r.Lines, probeLine{SKU: "SKU-" + strconv.Itoa(i*7+l), Qty: l + 1, Price: float64(i%97) + 0.25})
					r.Attrs["k"+strconv.Itoa(l)] = strconv.Itoa(i + l)
				}
				b, err := json.Marshal(r)
				if err != nil {
					panic(err)
				}
				var back probeRecord
				if err := json.Unmarshal(b, &back); err != nil {
					panic(err)
				}
				keep[back.ID] = &back
				if len(keep) >= 1024 {
					keep = map[string]*probeRecord{}
				}
				sums[p] += len(b)
			}
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(start), cpuTime()-cpu0
	for _, s := range sums {
		probeSink += s
	}
	return probeTime{
		wall: float64(wall) / probeIters,
		cpu:  float64(cpu) / float64(probeIters*procs),
	}
}
