package main

import (
	"bytes"
	"math"
	"os"
	rmetrics "runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is the process-wide counters one phase is bracketed by.
type procSample struct {
	at        time.Time
	cpu       time.Duration // user + system
	allocs    uint64
	mutexWait float64 // seconds
	gcCPU     float64 // cpu-seconds
	totalCPU  float64 // cpu-seconds, as the Go runtime accounts them
	schedLat  *rmetrics.Float64Histogram
	host      hostTicks
}

var procMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/sync/mutex/wait/total:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func sampleProc() procSample {
	s := procSample{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ms := make([]rmetrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		ms[i].Name = n
	}
	rmetrics.Read(ms)
	s.allocs = ms[0].Value.Uint64()
	s.mutexWait = ms[1].Value.Float64()
	s.gcCPU = ms[2].Value.Float64()
	s.totalCPU = ms[3].Value.Float64()
	s.schedLat = ms[4].Value.Float64Histogram()
	s.host = readHostTicks()
	return s
}

// hostTicks is the VM's CPU time from the "cpu" line of /proc/stat, in
// clock ticks: all of it, and the steal, the time the hypervisor ran
// something else while this VM's CPUs had work. Both are zero where
// /proc/stat cannot be read.
type hostTicks struct {
	total, steal uint64
}

func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}
	}
	var t hostTicks
	for i, field := range f[1:9] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return hostTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of the VM's CPU time stolen between a and b.
func stealShare(a, b hostTicks) float64 {
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stealLimit is the largest share of the VM's CPU time the host may
// steal during a second whose timings count. A steal of a few percent
// already doubles the batch workload's p99 in that second.
const stealLimit = 0.02

// calm marks the windows whose timings count: those in which the host
// stole at most stealLimit of the VM's CPU time. When those weigh less
// than need, the least-stolen of the others are added until they do, so
// a run on a host that is busy throughout still reports, only less
// steadily.
func calm(shares []float64, weights []int, need int) []bool {
	order := make([]int, len(shares))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return shares[order[a]] < shares[order[b]] })
	keep := make([]bool, len(shares))
	have := 0
	for _, i := range order {
		if shares[i] > stealLimit && have >= need {
			break
		}
		keep[i] = true
		have += weights[i]
	}
	return keep
}

// withinLimit counts the windows the host stole at most stealLimit from.
func withinLimit(shares []float64) int {
	n := 0
	for _, s := range shares {
		if s <= stealLimit {
			n++
		}
	}
	return n
}

func count(keep []bool) int {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	return n
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// schedP99 is the 99th percentile of the goroutine scheduling latencies
// recorded between two samples, in microseconds (bucket upper bound).
func schedP99(a, b procSample) float64 {
	if a.schedLat == nil || b.schedLat == nil {
		return math.NaN()
	}
	counts := make([]uint64, len(b.schedLat.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.schedLat.Counts[i] - a.schedLat.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			hi := b.schedLat.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.schedLat.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return math.NaN()
}

// quantile returns the q-quantile of xs (sorted in place), by the
// nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if !slices.IsSorted(xs) {
		slices.Sort(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
