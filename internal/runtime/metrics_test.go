package runtime

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
)

// The golden suite for Stats.String: the report is rendered in one
// strings.Builder pass, and these fixtures pin the exact output — any new
// line (per-shard cluster lines included) must show up here deliberately,
// not mangle the format silently.

func baseGoldenStats() Stats {
	return Stats{
		Submitted: 1200, Completed: 1000, Errors: 2,
		Work: 5000, WastedWork: 120, Launched: 2500, SynthesisRuns: 800,
		P50: 2 * time.Millisecond, P95: 9 * time.Millisecond,
		P99: 14 * time.Millisecond, Max: 40 * time.Millisecond,
		AvgLatency: 2500 * time.Microsecond,
	}
}

func TestStatsStringGolden(t *testing.T) {
	cases := []struct {
		name string
		st   func() Stats
		want string
	}{
		{
			name: "base",
			st:   baseGoldenStats,
			want: "completed=1000 errors=2 work=5000 wasted=120 launched=2500 synthesis=800\n" +
				"latency p50=2ms p95=9ms p99=14ms max=40ms avg=2.5ms",
		},
		{
			name: "with-query-layer",
			st: func() Stats {
				st := baseGoldenStats()
				st.BackendQueries = 1500
				st.Batches = 300
				st.DedupHits = 600
				st.CacheHits = 400
				st.CacheMisses = 1500
				return st
			},
			want: "completed=1000 errors=2 work=5000 wasted=120 launched=2500 synthesis=800\n" +
				"latency p50=2ms p95=9ms p99=14ms max=40ms avg=2.5ms\n" +
				"query layer: backend=1500 batches=300 avg-batch=5.0 dedup-hits=600 cache-hit/miss=400/1500",
		},
		{
			name: "with-cluster",
			st: func() Stats {
				st := baseGoldenStats()
				st.Cluster = &ClusterStats{
					Shards: 2, Replicas: 2,
					Hedges: 50, HedgeWins: 30, Retries: 7, Timeouts: 3,
					Errors: 9, BreakerTrips: 1, Failed: 2,
					Replica: [][]ReplicaStats{
						{{Queries: 700, Errors: 9, Timeouts: 3, BreakerTrips: 1}, {Queries: 650}},
						{{Queries: 600}, {Queries: 610}},
					},
				}
				return st
			},
			want: "completed=1000 errors=2 work=5000 wasted=120 launched=2500 synthesis=800\n" +
				"latency p50=2ms p95=9ms p99=14ms max=40ms avg=2.5ms\n" +
				"cluster: shards=2 replicas=2 hedges=30/50 won retries=7 timeouts=3 breaker-trips=1 failed=2\n" +
				"  shard 0: r0[q=700 err=9 to=3 trips=1] r1[q=650 err=0 to=0 trips=0]\n" +
				"  shard 1: r0[q=600 err=0 to=0 trips=0] r1[q=610 err=0 to=0 trips=0]",
		},
		{
			name: "with-peer-tier",
			st: func() Stats {
				st := baseGoldenStats()
				st.BackendQueries = 900
				st.Batches = 200
				st.DedupHits = 300
				st.CacheHits = 500
				st.CacheMisses = 900
				st.PeerForwards = 800
				st.PeerFallbacks = 25
				st.PeerServed = 750
				return st
			},
			want: "completed=1000 errors=2 work=5000 wasted=120 launched=2500 synthesis=800\n" +
				"latency p50=2ms p95=9ms p99=14ms max=40ms avg=2.5ms\n" +
				"query layer: backend=900 batches=200 avg-batch=4.5 dedup-hits=300 cache-hit/miss=500/900\n" +
				"peer tier: forwards=800 fallbacks=25 served=750",
		},
		{
			name: "with-shadow",
			st: func() Stats {
				st := baseGoldenStats()
				st.ShadowSubmitted = 120
				st.ShadowCompleted = 118
				st.ShadowErrors = 1
				return st
			},
			want: "completed=1000 errors=2 work=5000 wasted=120 launched=2500 synthesis=800\n" +
				"latency p50=2ms p95=9ms p99=14ms max=40ms avg=2.5ms\n" +
				"shadow: submitted=120 completed=118 errors=1",
		},
		{
			name: "with-tenants",
			st: func() Stats {
				st := baseGoldenStats()
				st.Tenants = map[string]TenantStats{
					"beta": {Completed: 400, Errors: 2,
						P50: time.Millisecond, P99: 8 * time.Millisecond, Max: 20 * time.Millisecond},
					"alpha": {Completed: 600,
						P50: 3 * time.Millisecond, P99: 15 * time.Millisecond, Max: 40 * time.Millisecond},
				}
				return st
			},
			want: "completed=1000 errors=2 work=5000 wasted=120 launched=2500 synthesis=800\n" +
				"latency p50=2ms p95=9ms p99=14ms max=40ms avg=2.5ms\n" +
				"tenant alpha: completed=600 errors=0 p50=3ms p99=15ms max=40ms\n" +
				"tenant beta: completed=400 errors=2 p50=1ms p99=8ms max=20ms",
		},
		{
			name: "everything",
			st: func() Stats {
				st := baseGoldenStats()
				st.BackendQueries = 10
				st.Batches = 10
				st.Cluster = &ClusterStats{
					Shards: 1, Replicas: 1,
					Replica: [][]ReplicaStats{{{Queries: 10}}},
				}
				return st
			},
			want: "completed=1000 errors=2 work=5000 wasted=120 launched=2500 synthesis=800\n" +
				"latency p50=2ms p95=9ms p99=14ms max=40ms avg=2.5ms\n" +
				"query layer: backend=10 batches=10 avg-batch=1.0 dedup-hits=0 cache-hit/miss=0/0\n" +
				"cluster: shards=1 replicas=1 hedges=0/0 won retries=0 timeouts=0 breaker-trips=0 failed=0\n" +
				"  shard 0: r0[q=10 err=0 to=0 trips=0]",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.st().String(); got != tc.want {
				t.Errorf("Stats.String mismatch\ngot:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// TestLatencyStatsConstantMemory: recording a completion allocates
// nothing once its tenant cell exists, however many completions a shard
// has seen, and the counters keep counting every one of them.
func TestLatencyStatsConstantMemory(t *testing.T) {
	var sh shard
	res := &engine.Result{Work: 3}
	sh.record(res, time.Millisecond, "acme") // materialize the tenant cell
	i := 0
	allocs := testing.AllocsPerRun(100000, func() {
		i++
		sh.record(res, time.Duration(i)*time.Microsecond, "acme")
	})
	if allocs != 0 {
		t.Fatalf("record allocates %.2f per completion, want 0", allocs)
	}
	if uint64(sh.lats.n) != sh.completed || uint64(sh.tenants["acme"].lats.n) != sh.completed {
		t.Fatalf("histogram counts %d/%d, completed %d",
			sh.lats.n, sh.tenants["acme"].lats.n, sh.completed)
	}
	if got := time.Duration(sh.lats.max); got != time.Duration(i)*time.Microsecond {
		t.Fatalf("max = %v, want %v", got, time.Duration(i)*time.Microsecond)
	}
}

// TestLatencyHistPrecision: every percentile the histogram reports is
// within 1/32 of the exact nearest-rank sample, across eight decades of
// latency; count, sum and max are exact.
func TestLatencyHistPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, spread := range []float64{1, 4, 18} {
		var h statHist
		samples := make([]int64, 20000)
		var sum int64
		for i := range samples {
			v := int64(math.Exp(rng.Float64()*spread) * 1000) // from 1µs up
			samples[i] = v
			sum += v
			h.add(v)
		}
		slices.Sort(samples)
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			exact := samples[int(q*float64(len(samples)-1))]
			got := int64(h.quantile(q))
			if math.Abs(float64(got-exact)) > float64(exact)/32 {
				t.Errorf("spread %v q=%v: got %d, exact %d (error > 1/32)", spread, q, got, exact)
			}
		}
		if h.n != int64(len(samples)) || h.sum != sum || h.max != samples[len(samples)-1] {
			t.Errorf("spread %v: n/sum/max = %d/%d/%d, want %d/%d/%d",
				spread, h.n, h.sum, h.max, len(samples), sum, samples[len(samples)-1])
		}
	}
	// Sub-bucket resolution is exact below statSub ns, and every bucket's
	// midpoint maps back to the bucket.
	for v := int64(0); v < statSub; v++ {
		if statMid(statIndex(v)) != v {
			t.Fatalf("value %d not exact", v)
		}
	}
	for i := 0; i < statBuckets; i++ {
		if statIndex(statMid(i)) != i {
			t.Fatalf("bucket %d midpoint %d maps to bucket %d", i, statMid(i), statIndex(statMid(i)))
		}
	}
}

// TestLatencySnapshotInterval: the difference of two cumulative snapshots
// judges only the completions between them — a slow past does not leak
// into a fast interval — and a reset in between judges the later
// snapshot alone.
func TestLatencySnapshotInterval(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()
	res := &engine.Result{}
	for i := 0; i < 1000; i++ {
		svc.shards[i%2].record(res, time.Second, "")
	}
	var before, after LatencyHist
	svc.LatencySnapshot(&before)
	for i := 0; i < 100; i++ {
		svc.shards[i%2].record(res, time.Millisecond, "")
	}
	svc.LatencySnapshot(&after)
	if got := after.P99Since(&after); got != 0 {
		t.Fatalf("p99 of an empty interval = %v, want 0", got)
	}
	if got := after.P99Since(&before); math.Abs(float64(got-time.Millisecond)) > float64(time.Millisecond)/32 {
		t.Fatalf("interval p99 = %v, want ~1ms (the earlier 1s samples must not count)", got)
	}
	svc.ResetStats()
	for i := 0; i < 10; i++ {
		svc.shards[0].record(res, 2*time.Millisecond, "")
	}
	svc.LatencySnapshot(&after)
	if got := after.P99Since(&before); math.Abs(float64(got-2*time.Millisecond)) > float64(2*time.Millisecond)/32 {
		t.Fatalf("p99 after reset = %v, want ~2ms", got)
	}
}
