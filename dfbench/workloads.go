package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flows"
	"repro/internal/runtime"
	"repro/internal/value"
)

// workload is one traffic mix over dfbin: which schema, backend and
// query layer the stack runs, how requests are shaped, and the fixed open-loop
// rate and latency limit the end-to-end metrics are judged against.
type workload struct {
	name    string
	schema  string // name the server knows the schema by
	text    string // schema text registered over the wire ("" = built-in)
	batch   int    // instances per request (1 = single evals)
	tenants []tenantShare
	// simdb selects the paced §5 CPU/disk database; otherwise Instant.
	simdb   bool
	query   runtime.QueryConfig
	capture bool
	// rate is the open-loop arrival rate in decisions per second; limit
	// is the latency a decision must meet to count toward slo_attainment.
	rate  float64
	limit time.Duration
	// conns is the number of client connections, each carrying one
	// request at a time (see newStack). It is the closed loop's
	// concurrency and bounds the open loop's requests in flight; a due
	// request waits for a free connection, and that wait counts as
	// latency. Connection i belongs to tenant i mod len(tenants).
	conns int
	// pool is the number of source vectors; sources makes vector i. A
	// workload whose input domain is small enumerates it, so every seed
	// sees the same mix and the seed only orders it.
	pool    int
	sources func(rng *rand.Rand, i int) map[string]value.Value
}

// tenantShare is one tenant's name and share of the open-loop arrivals.
type tenantShare struct {
	name   string
	weight float64
}

const strategy = "PSE100"

// simdbScale is the paced database's wall milliseconds per virtual
// millisecond: a query of a few units takes about a millisecond, so
// most of a decision's latency is simulated database time, which a busy
// host does not stretch. The paced database, not the engine, then caps
// the closed loop, at about 3000 decisions/s.
const simdbScale = 0.1

// creditText is the bin-single-simdb schema: queries keyed by customer
// and region, enabling conditions that read earlier query results (so
// PSE100 launches fraud and review speculatively and sometimes wastes
// them), and a synthesized decision.
const creditText = `schema credit
source customer_id
source region
source amount
source channel
query profile from customer_id cost 2
query history from customer_id cost 3
query region_risk from region cost 2
query region_rate from region cost 1
query fraud from customer_id,amount cost 3 when profile > 150
query limit from profile,region_risk cost 2 when region_risk < 800
synth exposure = amount + coalesce(history, 0)
query review from customer_id,region cost 4 when exposure > 400 or coalesce(fraud, 0) > 900
synth risk = coalesce(fraud, 0) + coalesce(limit, 0) / 2 + region_rate
query offer from risk,channel cost 2 when risk < 900 and channel != 3
synth decision = coalesce(offer, -1) + coalesce(review, 0)
target decision
`

var workloads = []*workload{
	{
		name:    "bin-batch-pattern",
		schema:  "pattern",
		batch:   32,
		tenants: []tenantShare{{"bench", 1}},
		rate:    3000,
		limit:   20 * time.Millisecond,
		conns:   4,
		pool:    41,
		sources: func(_ *rand.Rand, i int) map[string]value.Value {
			// The pattern's early enabling conditions compare src against
			// constants near its scripted value 50.
			return map[string]value.Value{"src": value.Int(int64(30 + i))}
		},
	},
	{
		name:   "bin-single-simdb",
		schema: "credit",
		text:   creditText,
		batch:  1,
		tenants: []tenantShare{
			{"acme", 0.4}, {"globex", 0.3}, {"initech", 0.2}, {"umbrella", 0.1},
		},
		capture: true,
		simdb:   true,
		query:   runtime.QueryConfig{BatchSize: 4, Dedup: true, CacheSize: 4096},
		rate:    1000,
		limit:   20 * time.Millisecond,
		conns:   64,
		pool:    8192,
		sources: creditSources(),
	},
}

// creditSources draws customer ids from a Zipf law (a few customers are
// hot, so the cache and dedup see repeats) and the other sources
// uniformly.
func creditSources() func(rng *rand.Rand, i int) map[string]value.Value {
	return func(rng *rand.Rand, _ int) map[string]value.Value {
		z := rand.NewZipf(rng, 1.1, 1, 19999)
		return map[string]value.Value{
			"customer_id": value.Int(int64(z.Uint64()) + 1),
			"region":      value.Int(int64(rng.Intn(16))),
			"amount":      value.Int(int64(rng.Intn(1000))),
			"channel":     value.Int(int64(rng.Intn(4))),
		}
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// compileSchema builds the schema exactly as the server does: a built-in
// flow, or the registered text with the server's deterministic foreign
// computes bound.
func (w *workload) compileSchema() (*core.Schema, error) {
	if w.text == "" {
		s, _, err := flows.ByName(w.schema)
		return s, err
	}
	s, err := core.ParseSchema(w.text)
	if err != nil {
		return nil, err
	}
	flows.BindDefaultComputes(s)
	return s, nil
}

// inputs is everything a run derives from its seed: the source-vector
// pool and the open-loop arrival schedule. The program under test sees
// only these.
type inputs struct {
	pool []map[string]value.Value
	// keys[i] renders pool[i] canonically; equal keys are one distinct
	// source vector, checked against one reference decision.
	keys []string
	seed int64
}

func newInputs(w *workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed}
	for i := 0; i < w.pool; i++ {
		src := w.sources(rng, i)
		in.pool = append(in.pool, src)
		in.keys = append(in.keys, sourceKey(src))
	}
	return in
}

func sourceKey(src map[string]value.Value) string {
	names := make([]string, 0, len(src))
	for n := range src {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(src[n].String())
		b.WriteByte(';')
	}
	return b.String()
}

// pick maps (stream, request k, member j) to a pool index with a
// stateless hash of the seed, so any goroutine can compute any request's
// inputs without sharing a generator.
func (in *inputs) pick(stream, k uint64, j int) int {
	h := splitmix64(uint64(in.seed)*0x9e3779b97f4a7c15 ^ stream<<56 ^ k<<8 ^ uint64(j))
	return int(h % uint64(len(in.pool)))
}

// uniform maps (stream, k) to [0, 1).
func (in *inputs) uniform(stream, k uint64) float64 {
	h := splitmix64(uint64(in.seed)*0xbf58476d1ce4e5b9 ^ stream<<56 ^ k)
	return float64(h>>11) / (1 << 53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Streams keep the closed loop, the open loop and the tenant draws apart.
const (
	streamClosed uint64 = iota + 1
	streamOpen
	streamTenant
	streamArrival
	streamWarm
	streamSetup
)

// arrival is one open-loop request: when it is due (offset from the
// phase start), and the tenant it is sent as.
type arrival struct {
	due    time.Duration
	tenant int
}

// schedule draws the Poisson arrivals of an open-loop phase of length d:
// requests (of w.batch decisions each) at w.rate/w.batch per second.
func (in *inputs) schedule(w *workload, d time.Duration) []arrival {
	reqRate := w.rate / float64(w.batch)
	var out []arrival
	var t float64 // seconds
	for k := uint64(0); ; k++ {
		t += -math.Log(1-in.uniform(streamArrival, k)) / reqRate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, arrival{due: due, tenant: in.tenantFor(w, k)})
	}
}

// tenantFor draws request k's tenant by the workload's shares.
func (in *inputs) tenantFor(w *workload, k uint64) int {
	u := in.uniform(streamTenant, k)
	for i, t := range w.tenants {
		if u < t.weight {
			return i
		}
		u -= t.weight
	}
	return len(w.tenants) - 1
}
