package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a percentile for it to be
// reported: a tail read off fewer samples is one or two outliers.
const minBeyond = 10

// ladder is the set of percentiles a timing can be reported at.
var ladder = []float64{50, 90, 95, 99, 99.9, 99.99}

// rank is the nearest-rank index of percentile p among n sorted samples.
// The epsilon keeps decimal percentiles such as 99.9 from rounding up a
// whole rank (99.9/100 × 10000 is 9990.000000000002 in binary).
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return max(0, min(i, n-1))
}

// tailPercentile returns the highest percentile of ladder that has at least
// minBeyond of n samples above it; ok is false when even the lowest has not.
func tailPercentile(n int, ladder []float64) (p float64, ok bool) {
	for _, q := range ladder {
		if n-(rank(n, q)+1) >= minBeyond {
			p, ok = q, true
		}
	}
	return p, ok
}

// percentile returns percentile p of sorted samples (0 when empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// median of xs (unsorted; xs is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timing is a set of durations in milliseconds.
type timing []float64

func (t timing) sorted() timing {
	s := append(timing(nil), t...)
	sort.Float64s(s)
	return s
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the CPU time the hypervisor has taken from this machine's
// CPUs so far, summed over CPUs (0 where /proc/stat is missing).
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// Runtime metrics the benchmark reads around a timed phase.
const (
	mAllocObjects = "/gc/heap/allocs:objects"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mLiveBytes    = "/gc/heap/live:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU     = "/cpu/classes/total:cpu-seconds"
	mGCPauses     = "/sched/pauses/total/gc:seconds"
	mSchedLat     = "/sched/latencies:seconds"
)

// rtSample is one reading of the runtime metrics above.
type rtSample []metrics.Sample

func readRuntime() rtSample {
	s := rtSample{
		{Name: mAllocObjects}, {Name: mAllocBytes}, {Name: mLiveBytes},
		{Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU},
		{Name: mGCPauses}, {Name: mSchedLat},
	}
	metrics.Read(s)
	return s
}

func (s rtSample) get(name string) metrics.Value {
	for _, x := range s {
		if x.Name == name {
			return x.Value
		}
	}
	return metrics.Value{}
}

// num reads a counter or gauge as a float (0 when the runtime lacks it).
func (s rtSample) num(name string) float64 {
	switch v := s.get(name); v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// hist reads a histogram metric (nil when the runtime lacks it).
func (s rtSample) hist(name string) *metrics.Float64Histogram {
	if v := s.get(name); v.Kind() == metrics.KindFloat64Histogram {
		return v.Float64Histogram()
	}
	return nil
}

// histDelta is the bucket-count difference end−start of one histogram
// metric; it shares the runtime's bucket boundaries.
type histDelta struct {
	buckets []float64
	counts  []uint64
}

func deltaHist(start, end *metrics.Float64Histogram) histDelta {
	if start == nil || end == nil {
		return histDelta{}
	}
	d := histDelta{buckets: end.Buckets, counts: make([]uint64, len(end.Counts))}
	for i := range end.Counts {
		d.counts[i] = end.Counts[i] - start.Counts[i]
	}
	return d
}

func (d *histDelta) add(o histDelta) {
	if d.counts == nil {
		d.buckets = o.buckets
		d.counts = make([]uint64, len(o.counts))
	}
	for i := range o.counts {
		d.counts[i] += o.counts[i]
	}
}

// percentile returns the upper bound of the bucket holding percentile p, in
// seconds (the lower bound for the open-ended last bucket; 0 when empty).
func (d histDelta) percentile(p float64) float64 {
	var n uint64
	for _, c := range d.counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	want := uint64(rank(int(n), p)) + 1
	var seen uint64
	for i, c := range d.counts {
		seen += c
		if seen >= want {
			if hi := d.buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return d.buckets[i]
		}
	}
	return 0
}
