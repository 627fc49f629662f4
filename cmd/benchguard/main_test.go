package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchOut is `go test -bench` output with one benchmark run at -cpu 1,2
// (no suffix at 1 proc) next to benchmarks run at the default 2 procs.
const benchOut = `goos: linux
BenchmarkServeQuickstartPSE100-2   	   20000	      2785 ns/op	    369209 inst/s	      59 B/op	       1 allocs/op
BenchmarkServeHTTPBatched-2   	   20000	     12264 ns/op	     81559 inst/s	    3826 B/op	      43 allocs/op
PASS
BenchmarkServePattern64PSE100   	   20000	     56000 ns/op	     17800 inst/s	     900 B/op	      12 allocs/op
BenchmarkServePattern64PSE100-2   	   20000	     34000 ns/op	     29000 inst/s	     900 B/op	      12 allocs/op
`

func TestParseKeepsProcsOnlyForMultiProcBenchmarks(t *testing.T) {
	rec, err := parse(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"BenchmarkServeQuickstartPSE100",
		"BenchmarkServeHTTPBatched",
		"BenchmarkServePattern64PSE100-1",
		"BenchmarkServePattern64PSE100-2",
	} {
		if _, ok := rec.Benchmarks[name]; !ok {
			t.Errorf("record lacks %s; has %v", name, rec.Benchmarks)
		}
	}
	if len(rec.Benchmarks) != 4 {
		t.Errorf("record holds %d benchmarks, want 4", len(rec.Benchmarks))
	}
	if rec.GOMAXPROCS != 2 {
		t.Errorf("GOMAXPROCS = %d, want 2", rec.GOMAXPROCS)
	}
	if got := rec.Benchmarks["BenchmarkServePattern64PSE100-1"].Metrics["inst/s"]; got != 17800 {
		t.Errorf("Pattern64-1 inst/s = %v, want 17800", got)
	}
	if _, _, ok := procVariant(rec, "BenchmarkServeHTTPBatched"); ok {
		t.Error("procVariant treats a single-proc-count benchmark as a variant")
	}
	if base, procs, ok := procVariant(rec, "BenchmarkServePattern64PSE100-2"); !ok || base != "BenchmarkServePattern64PSE100" || procs != 2 {
		t.Errorf("procVariant(Pattern64-2) = %q, %d, %v", base, procs, ok)
	}
}

func TestCheckLeavesProcVariantsToScalingInNormalizedMode(t *testing.T) {
	base, err := parse(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	base.NProc = 2
	write := func(name string, rec Record) string {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// withPattern copies base with the pattern benchmark's throughput at
	// one and two procs replaced.
	withPattern := func(one, two float64) Record {
		rec := Record{NProc: base.NProc, Benchmarks: map[string]Bench{}}
		for name, b := range base.Benchmarks {
			m := map[string]float64{}
			for k, v := range b.Metrics {
				m[k] = v
			}
			rec.Benchmarks[name] = Bench{NsPerOp: b.NsPerOp, Metrics: m}
		}
		rec.Benchmarks["BenchmarkServePattern64PSE100-1"].Metrics["inst/s"] = one
		rec.Benchmarks["BenchmarkServePattern64PSE100-2"].Metrics["inst/s"] = two
		return rec
	}
	basePath := write("base.json", base)
	const norm = "BenchmarkServeQuickstartPSE100"

	// A halved 1-proc ratio is not judged against the normalizer, which
	// runs at another proc count; scaling still holds, so the check passes.
	if err := check(write("cur.json", withPattern(8900, 29000)), basePath, "inst/s", norm, 0.20); err != nil {
		t.Errorf("normalized check failed on a proc variant's ratio: %v", err)
	}
	// Absolute mode compares each proc count with its own baseline entry.
	if err := check(write("cur.json", withPattern(8900, 29000)), basePath, "inst/s", "", 0.20); err == nil ||
		!strings.Contains(err.Error(), "BenchmarkServePattern64PSE100-1") {
		t.Errorf("absolute check missed the 1-proc regression: %v", err)
	}
	// 2 procs slower than 1 fails in either mode on a 2-core host.
	for _, normalize := range []string{norm, ""} {
		if err := check(write("cur.json", withPattern(29000, 17800)), basePath, "inst/s", normalize, 0.20); err == nil ||
			!strings.Contains(err.Error(), "at 2 procs") {
			t.Errorf("normalize=%q: scaling check missed 2 procs < 1 proc: %v", normalize, err)
		}
	}
	// A missing variant is still reported in normalized mode.
	cur := withPattern(17800, 29000)
	delete(cur.Benchmarks, "BenchmarkServePattern64PSE100-2")
	if err := check(write("cur.json", cur), basePath, "inst/s", norm, 0.20); err == nil ||
		!strings.Contains(err.Error(), "missing from current run") {
		t.Errorf("normalized check missed a vanished proc variant: %v", err)
	}
}
