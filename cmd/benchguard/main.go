// Command benchguard turns `go test -bench` output into a committed JSON
// benchmark record and enforces a throughput regression budget against a
// committed baseline.
//
// Emit mode parses benchmark output and writes the record:
//
//	go test -run '^$' -bench Serve -benchtime 3000x ./internal/runtime > bench.out
//	benchguard -in bench.out -out BENCH_serving.json
//
// Check mode compares a current record against a baseline and exits
// nonzero when any benchmark's inst/s throughput regressed more than the
// tolerance (default 0.20 = 20%):
//
//	benchguard -current BENCH_serving.json -baseline BENCH_baseline.json
//
// Beyond throughput, check mode guards the lower-is-better metrics where
// the baseline reports them: p99-ms (tail latency) fails on a regression
// past the same tolerance, and allocs/op fails on any increase beyond the
// tolerance plus half an allocation (absorbing amortization rounding) —
// so an accidental allocation on a hot path that stayed within the
// throughput budget still fails CI. These are compared absolutely, never
// normalized: allocation counts are machine-independent, and the guarded
// p99s are dominated by injected backend latency rather than CPU speed.
//
// Improvements and new benchmarks never fail the check; a benchmark
// missing from the current record does (it means coverage silently
// disappeared). A missing baseline file passes with a note, so the guard
// bootstraps cleanly on fresh branches.
//
// Core scaling: a benchmark the output holds at more than one GOMAXPROCS
// (`go test -cpu 1,2`) keeps its proc suffix in the record, "-1" included
// where `go test` prints none, so each proc count gets its own entry. On a
// host with at least two cores, check mode fails when such a benchmark's
// 2-proc throughput is below its 1-proc throughput in the current record —
// serving must not get slower when given a second core. Normalized mode
// leaves these entries to the scaling check: the normalizer runs at one
// proc count only, so their ratio to it would move with the host's cores.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Record is the serialized benchmark file.
type Record struct {
	// GOMAXPROCS is the proc count the benchmarks ran at (the suffix `go
	// test` appends), and NProc the logical CPUs of the recording host.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	NProc      int `json:"nproc,omitempty"`
	// Benchmarks maps benchmark name to its measurements. The GOMAXPROCS
	// suffix is stripped, except for benchmarks run at several proc counts
	// (see above).
	Benchmarks map[string]Bench `json:"benchmarks"`
}

// Bench is one benchmark's measurements.
type Bench struct {
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchLine matches e.g.
// "BenchmarkServeQuickstartPSE100-8   3000   2785 ns/op   369209 inst/s   59 B/op"
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([\d.]+) ns/op(.*)$`)

func main() {
	var (
		in        = flag.String("in", "", "emit: benchmark output file to parse ('-' for stdin)")
		out       = flag.String("out", "", "emit: JSON record to write")
		current   = flag.String("current", "", "check: current JSON record")
		baseline  = flag.String("baseline", "", "check: committed baseline JSON record")
		tolerance = flag.Float64("tolerance", 0.20, "check: allowed fractional inst/s regression")
		metric    = flag.String("metric", "inst/s", "check: throughput metric to guard")
		normalize = flag.String("normalize", "", "check: divide every measurement by this benchmark's, guarding machine-independent ratios instead of absolute throughput (for baselines recorded on different hardware, e.g. CI runners)")
	)
	flag.Parse()

	switch {
	case *in != "" && *out != "":
		if err := emit(*in, *out); err != nil {
			fail(err)
		}
	case *current != "" && *baseline != "":
		if err := check(*current, *baseline, *metric, *normalize, *tolerance); err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("usage: benchguard -in bench.out -out FILE.json | benchguard -current FILE.json -baseline BASE.json"))
	}
}

func emit(in, out string) error {
	f := os.Stdin
	if in != "-" {
		var err error
		if f, err = os.Open(in); err != nil {
			return err
		}
		defer f.Close()
	}
	rec, err := parse(f)
	if err != nil {
		return err
	}
	if len(rec.Benchmarks) == 0 {
		return fmt.Errorf("benchguard: no benchmark lines found in %s", in)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchguard: wrote %d benchmarks (GOMAXPROCS=%d, nproc=%d) to %s\n",
		len(rec.Benchmarks), rec.GOMAXPROCS, rec.NProc, out)
	return nil
}

// parse reads `go test -bench` output into a record. A benchmark seen at
// more than one proc count keeps the suffix on each entry; every other
// benchmark is recorded under its bare name, and the largest of their proc
// counts is the record's GOMAXPROCS.
func parse(r io.Reader) (Record, error) {
	type result struct {
		name  string
		procs int
		bench Bench
	}
	var results []result
	procsSeen := map[string]map[int]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		procs := 1
		if m[2] != "" {
			procs, _ = strconv.Atoi(m[2])
		}
		if procsSeen[m[1]] == nil {
			procsSeen[m[1]] = map[int]bool{}
		}
		procsSeen[m[1]][procs] = true
		results = append(results, result{m[1], procs, Bench{NsPerOp: ns, Metrics: parseMetrics(m[4])}})
	}
	rec := Record{NProc: runtime.NumCPU(), Benchmarks: map[string]Bench{}}
	for _, res := range results {
		name := res.name
		if len(procsSeen[name]) > 1 {
			name = fmt.Sprintf("%s-%d", name, res.procs)
		} else {
			rec.GOMAXPROCS = max(rec.GOMAXPROCS, res.procs)
		}
		rec.Benchmarks[name] = res.bench
	}
	return rec, sc.Err()
}

// parseMetrics extracts "value unit" pairs from the tail of a benchmark
// line (inst/s, B/op, allocs/op, custom ReportMetric units).
func parseMetrics(rest string) map[string]float64 {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil
	}
	out := map[string]float64{}
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			break
		}
		out[fields[i+1]] = v
	}
	return out
}

func check(currentPath, baselinePath, metric, normalize string, tolerance float64) error {
	cur, err := load(currentPath)
	if err != nil {
		return err
	}
	base, err := load(baselinePath)
	if os.IsNotExist(err) {
		fmt.Printf("benchguard: no baseline at %s; commit the current record to create one\n", baselinePath)
		return nil
	}
	if err != nil {
		return err
	}
	// Normalized mode divides every measurement by the reference
	// benchmark's, so machine speed cancels and the guard compares each
	// path's throughput relative to the same run's serving ceiling. A
	// uniform slowdown (including one hitting the reference itself) is
	// invisible by construction — normalized baselines guard shape, not
	// absolute speed.
	baseDiv, curDiv := 1.0, 1.0
	if normalize != "" {
		if baseDiv = base.Benchmarks[normalize].Metrics[metric]; baseDiv <= 0 {
			return fmt.Errorf("benchguard: baseline lacks normalization benchmark %s with %s", normalize, metric)
		}
		if curDiv = cur.Benchmarks[normalize].Metrics[metric]; curDiv <= 0 {
			return fmt.Errorf("benchguard: current run lacks normalization benchmark %s with %s", normalize, metric)
		}
	}
	var regressions []string
	checked := 0
	for name, bb := range base.Benchmarks {
		if name == normalize {
			continue // its ratio is 1 by construction
		}
		bv, ok := bb.Metrics[metric]
		if !ok || bv <= 0 {
			continue
		}
		cb, ok := cur.Benchmarks[name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: present in baseline, missing from current run", name))
			continue
		}
		if _, _, ok := procVariant(base, name); ok && normalize != "" {
			fmt.Printf("benchguard: %s left to the scaling check in normalized mode\n", name)
			continue
		}
		cv := cb.Metrics[metric]
		bv, cv = bv/baseDiv, cv/curDiv
		checked++
		if cv < bv*(1-tolerance) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %s %.4g -> %.4g (-%.1f%%, budget %.0f%%)",
					name, metric, bv, cv, 100*(1-cv/bv), 100*tolerance))
		} else {
			fmt.Printf("benchguard: %s %s %.4g -> %.4g ok\n", name, metric, bv, cv)
		}
	}
	// Lower-is-better guards: tail latency and allocation count, where the
	// baseline reports them. Unlike throughput these are never normalized.
	lowGuards := []struct {
		metric string
		eps    float64 // absolute slack on top of the fractional budget
	}{
		{"p99-ms", 0},
		{"allocs/op", 0.5},
	}
	lowChecked := 0
	for name, bb := range base.Benchmarks {
		cb, ok := cur.Benchmarks[name]
		if !ok {
			continue // absence already reported by the throughput loop
		}
		for _, g := range lowGuards {
			bv, ok := bb.Metrics[g.metric]
			if !ok {
				continue
			}
			cv, ok := cb.Metrics[g.metric]
			if !ok {
				regressions = append(regressions,
					fmt.Sprintf("%s: %s present in baseline, missing from current run", name, g.metric))
				continue
			}
			lowChecked++
			if cv > bv*(1+tolerance)+g.eps {
				regressions = append(regressions,
					fmt.Sprintf("%s: %s %.4g -> %.4g (+%.1f%%, budget %.0f%%)",
						name, g.metric, bv, cv, 100*(cv/bv-1), 100*tolerance))
			} else {
				fmt.Printf("benchguard: %s %s %.4g -> %.4g ok\n", name, g.metric, bv, cv)
			}
		}
	}
	regressions = append(regressions, checkScaling(cur, metric)...)
	if len(regressions) > 0 {
		return fmt.Errorf("benchguard: %d regression(s) beyond %.0f%%:\n\t%s",
			len(regressions), 100*tolerance, strings.Join(regressions, "\n\t"))
	}
	if checked == 0 {
		return fmt.Errorf("benchguard: baseline %s has no %q measurements to guard", baselinePath, metric)
	}
	fmt.Printf("benchguard: %d benchmarks within throughput budget, %d latency/alloc measurements within budget\n",
		checked, lowChecked)
	return nil
}

// checkScaling compares each benchmark recorded at both one and two procs
// within the current record: on a host with at least two cores, the 2-proc
// throughput must not fall below the 1-proc throughput.
func checkScaling(cur Record, metric string) []string {
	var failures []string
	for name, one := range cur.Benchmarks {
		base, procs, ok := procVariant(cur, name)
		if !ok || procs != 1 {
			continue
		}
		two, ok := cur.Benchmarks[base+"-2"]
		if !ok {
			continue
		}
		v1, v2 := one.Metrics[metric], two.Metrics[metric]
		switch {
		case cur.NProc < 2:
			fmt.Printf("benchguard: %s scaling not judged on a %d-core host\n", base, cur.NProc)
		case v2 < v1:
			failures = append(failures, fmt.Sprintf("%s: %s at 2 procs %.4g < at 1 proc %.4g (%.2fx)",
				base, metric, v2, v1, v2/v1))
		default:
			fmt.Printf("benchguard: %s %s 1 -> 2 procs %.4g -> %.4g (%.2fx) ok\n", base, metric, v1, v2, v2/v1)
		}
	}
	return failures
}

// procVariant splits an entry parse kept a proc suffix on — "X-2" in a
// record that also holds X at another proc count — into X and its proc
// count.
func procVariant(rec Record, name string) (base string, procs int, ok bool) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return "", 0, false
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return "", 0, false
	}
	base = name[:i]
	for other := range rec.Benchmarks {
		if rest, found := strings.CutPrefix(other, base+"-"); found && other != name {
			if _, err := strconv.Atoi(rest); err == nil {
				return base, procs, true
			}
		}
	}
	return "", 0, false
}

func load(path string) (Record, error) {
	var rec Record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("benchguard: parsing %s: %w", path, err)
	}
	return rec, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
