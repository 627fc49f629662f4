// Command dfbench is the repository's end-to-end benchmark: it serves dfsd
// in-process on a real loopback listener (runtime.New under server.Open,
// dfbin through ServeBinary), drives it through client.New with a closed
// loop (capacity) and an open Poisson loop (latency), checks every answer against engine.Run, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the
// run is measured twice, first untraced and then with the traced backend
// wrapper, request spans and samplers on, and the metrics are the
// per-layer ones plus the tracing overhead.
//
//	go run . -workload bin-single-simdb -seed 1 -seconds 30 -trace 0
//
// NOTES.md explains the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/runtime"
)

// setupReps is how many times an untraced run sets the stack up; setup_s
// is their median.
const setupReps = 15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	commit   string
	workDir  string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision the binary was built from")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build/run", "scratch directory (capture files, traces)")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return err
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}
	fmt.Printf("dfbench workload=%s seed=%d seconds=%d trace=%v nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, stdruntime.NumCPU(), stdruntime.GOMAXPROCS(0),
		stdruntime.Version(), cfg.commit)
	fmt.Printf("workload: schema=%s batch=%d tenants=%d backend=%s query=%+v capture=%v rate=%.0f/s limit=%v connections=%d\n",
		w.schema, w.batch, len(w.tenants), backendName(w), w.query, w.capture, w.rate, w.limit, w.conns)

	in := newInputs(w, cfg.seed)
	schema, err := w.compileSchema()
	if err != nil {
		return err
	}
	ref, err := references(schema, in)
	if err != nil {
		return err
	}
	b := &bench{w: w, cfg: cfg, in: in, ref: ref, opts: stackOptions{workDir: cfg.workDir}}
	dur := time.Duration(cfg.seconds) * time.Second
	var res result
	if cfg.trace {
		res, err = b.traced(dur, schema)
	} else {
		res, err = b.untraced(dur)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func backendName(w *workload) string {
	if w.simdb {
		return fmt.Sprintf("simdb(scale=%g)", simdbScale)
	}
	return "instant"
}

type bench struct {
	w    *workload
	cfg  config
	in   *inputs
	ref  []uint64
	opts stackOptions
}

// setup builds a stack and takes it to its first correct answer.
func (b *bench) setup(opts stackOptions) (*stack, time.Duration, error) {
	ctx := context.Background()
	start := time.Now()
	st, err := newStack(b.w, opts)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*stack, time.Duration, error) {
		st.close()
		return nil, 0, err
	}
	if err := st.register(ctx); err != nil {
		return fail(fmt.Errorf("register schema: %w", err))
	}
	d := &loadgen{st: st, in: b.in, ref: b.ref}
	m := d.members(streamSetup, 0)
	res, err := st.do(ctx, 0, b.in, m)
	if err != nil {
		return fail(fmt.Errorf("first eval: %w", err))
	}
	for j, r := range res {
		if r.Error != "" || !d.correct(&r, m[j]) {
			return fail(fmt.Errorf("first eval answered wrongly: %+v", r))
		}
	}
	return st, time.Since(start), nil
}

// measurement is one warmed-up closed phase plus one open phase on a stack.
type measurement struct {
	closed, open *tally
	// slices bracket each second of the closed window: samples[i] and
	// good[i] are read at its start, the last at its end.
	samples      []procSample
	good         []int64
	stats0       api.StatsResponse
	stats1       api.StatsResponse
	rs           runtime.Stats // since the warm-up ended
	measureStart time.Time
	measureEnd   time.Time
	rssMB        float64 // peak RSS when the phases ended
	// openHost samples the VM's CPU ticks every second of the open loop,
	// bracketing it.
	openHost []hostSample
	// traced only
	queueDepth    []float64
	goroutinesMax uint64
}

// closedCalm returns the host's steal share in each slice of the closed
// window and which slices count (see calm): at least a quarter of them.
func (m *measurement) closedCalm() (shares []float64, keep []bool) {
	shares = make([]float64, len(m.samples)-1)
	weights := make([]int, len(shares))
	for i := range shares {
		shares[i] = stealShare(m.samples[i].host, m.samples[i+1].host)
		weights[i] = 1
	}
	return shares, calm(shares, weights, (len(shares)+3)/4)
}

// closedSlices returns, per counted slice of the closed window, the
// correct decisions per second, CPU microseconds and heap objects per
// decision.
func (m *measurement) closedSlices() (tput, cpu, allocs []float64) {
	_, keep := m.closedCalm()
	for i := 1; i < len(m.samples); i++ {
		if !keep[i-1] {
			continue
		}
		a, b := m.samples[i-1], m.samples[i]
		g := float64(m.good[i] - m.good[i-1])
		tput = append(tput, g/b.at.Sub(a.at).Seconds())
		cpu = append(cpu, ratio(float64((b.cpu-a.cpu).Microseconds()), g))
		allocs = append(allocs, ratio(float64(b.allocs-a.allocs), g))
	}
	return tput, cpu, allocs
}

func (m *measurement) throughput() float64 {
	t, _, _ := m.closedSlices()
	return median(t)
}

func (m *measurement) cpuPerDecision() float64 {
	_, c, _ := m.closedSlices()
	return median(c)
}

// first and last bracket the whole closed window.
func (m *measurement) first() procSample { return m.samples[0] }
func (m *measurement) last() procSample  { return m.samples[len(m.samples)-1] }

// hostSample is the VM's CPU ticks at one moment.
type hostSample struct {
	at    time.Time
	ticks hostTicks
}

// latencySamples is the fewest open-loop requests the latency metrics
// rest on, so that at least ten lie beyond the p99.
const latencySamples = 1000

// openCalm returns the host's steal share in each second of the open
// loop, which seconds count (see calm), and the second each request was
// due in. The seconds that count hold at least latencySamples requests.
func (m *measurement) openCalm() (shares []float64, keep []bool, second []int) {
	h := m.openHost
	shares = make([]float64, len(h)-1)
	for i := range shares {
		shares[i] = stealShare(h[i].ticks, h[i+1].ticks)
	}
	weights := make([]int, len(shares))
	second = make([]int, len(m.open.spans))
	for k, s := range m.open.spans {
		due := m.open.start.Add(time.Duration(s.due))
		i := sort.Search(len(h), func(i int) bool { return h[i].at.After(due) }) - 1
		second[k] = max(0, min(i, len(shares)-1))
		weights[second[k]]++
	}
	return shares, calm(shares, weights, latencySamples), second
}

// calmSpans returns the open loop's requests due in a second that
// counts, in due order.
func (m *measurement) calmSpans() []reqSpan {
	_, keep, second := m.openCalm()
	var spans []reqSpan
	for k, s := range m.open.spans {
		if keep[second[k]] {
			spans = append(spans, s)
		}
	}
	return spans
}

// latencies returns the due→answer latency of each successful open-loop
// request due in a second that counts, in due order, in milliseconds.
func (m *measurement) latencies() []float64 {
	var out []float64
	for _, s := range m.calmSpans() {
		if s.ok {
			out = append(out, float64(s.answered-s.due)/1e6)
		}
	}
	return out
}

// latencyQuantiles returns the p50 and p99 of latencies.
func (m *measurement) latencyQuantiles() (p50, p99 float64) {
	lat := m.latencies()
	return quantile(lat, 0.5), quantile(lat, 0.99)
}

// sloAttainment is the share of the decisions due in a second that
// counts that were answered correctly within the workload's limit.
func (b *bench) sloAttainment(m *measurement) float64 {
	spans := m.calmSpans()
	limit := int64(b.w.limit)
	var met int
	for _, s := range spans {
		if s.answered-s.due <= limit {
			met += s.good
		}
	}
	return ratio(float64(met), float64(len(spans)*b.w.batch))
}

// measure warms the stack up and runs the closed and open phases. With
// a span log (the traced run) it records backend calls during the phases
// and samples the worker queue.
func (b *bench) measure(st *stack, dur time.Duration, log *spanLog) (*measurement, error) {
	ctx := context.Background()
	traced := log != nil
	d := &loadgen{st: st, in: b.in, ref: b.ref, traced: traced}
	warm := min(time.Second, dur/10)
	d.closed(ctx, warm, warm, streamWarm, func() {})
	st.svc.ResetStats()
	m := &measurement{}
	var err error
	if m.stats0, _, err = st.stats(); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	var stop chan struct{}
	var wg sync.WaitGroup
	if traced {
		stop = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					m.queueDepth = append(m.queueDepth, float64(st.svc.QueueDepth()))
					m.goroutinesMax = max(m.goroutinesMax, uint64(stdruntime.NumGoroutine()))
				}
			}
		}()
	}
	m.measureStart = time.Now()
	if traced {
		log.recording.Store(true)
	}
	sample := func() {
		m.samples = append(m.samples, sampleProc())
		m.good = append(m.good, d.good.Load())
	}
	sample()
	// The closed loop is sampled in slices of about a second; its
	// metrics are medians over the slices.
	closedDur := dur * 35 / 100
	slice := closedDur / time.Duration(max(1, closedDur.Round(time.Second)/time.Second))
	m.closed = d.closed(ctx, closedDur, slice, streamClosed, sample)
	m.openHost = sampleHost(func() { m.open = d.open(ctx, dur-closedDur) })
	m.measureEnd = time.Now()
	m.rssMB = maxRSSMB()
	if traced {
		log.recording.Store(false)
		close(stop)
		wg.Wait()
	}
	if m.stats1, m.rs, err = st.stats(); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return m, nil
}

// sampleHost runs phase, sampling the VM's CPU ticks when it starts,
// every second while it runs, and when it ends.
func sampleHost(phase func()) []hostSample {
	samples := []hostSample{{time.Now(), readHostTicks()}}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case at := <-tick.C:
				samples = append(samples, hostSample{at, readHostTicks()})
			}
		}
	}()
	phase()
	close(stop)
	<-done
	return append(samples, hostSample{time.Now(), readHostTicks()})
}

func (b *bench) report(name string, t *tally) {
	fmt.Printf("phase %-7s attempted=%d succeeded=%d failed=%d", name, t.attempted, t.succeeded, t.failures())
	for i, n := range t.failed {
		fmt.Printf(" %s=%d", causeNames[i], n)
	}
	fmt.Println()
}

func (b *bench) untraced(dur time.Duration) (result, error) {
	var setups []float64
	var st *stack
	for i := 0; i < setupReps; i++ {
		s, took, err := b.setup(b.opts)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
		if i < setupReps-1 {
			if err := s.close(); err != nil {
				return result{}, fmt.Errorf("teardown: %w", err)
			}
		}
		st = s
	}
	m, err := b.measure(st, dur, nil)
	if cerr := st.close(); err == nil && cerr != nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	if err != nil {
		return result{}, err
	}
	b.report("closed", m.closed)
	b.report("open", m.open)
	met := b.endToEnd(m)
	met["setup_s"] = metric{median(setups), "s"}
	return b.finish(met, m.closed, m.open), nil
}

func (b *bench) endToEnd(m *measurement) map[string]metric {
	p50, p99 := m.latencyQuantiles()
	_, _, allocs := m.closedSlices()
	all := &tally{}
	all.merge(m.closed)
	all.merge(m.open)
	received := m.rs.BackendQueries
	if b.w.query == (runtime.QueryConfig{}) {
		// Without the query layer every launch is a database query.
		received = m.rs.Launched
	}
	lat := m.latencies()
	cShares, cKeep := m.closedCalm()
	oShares, oKeep, _ := m.openCalm()
	h := m.openHost
	fmt.Printf("host steal: closed loop %.1f%%, %d of %d slices within %g%%, %d counted; open loop %.1f%%, %d of %d seconds within it, %d counted\n",
		100*stealShare(m.first().host, m.last().host), withinLimit(cShares), len(cShares), 100*stealLimit, count(cKeep),
		100*stealShare(h[0].ticks, h[len(h)-1].ticks), withinLimit(oShares), len(oShares), count(oKeep))
	var every []float64
	for _, s := range m.open.spans {
		if s.ok {
			every = append(every, float64(s.answered-s.due)/1e6)
		}
	}
	fmt.Printf("open loop: %d latency samples in the counted seconds, %d beyond the p99; p99 over every second %.4g ms\n",
		len(lat), len(lat)-int(math.Ceil(0.99*float64(len(lat)))), quantile(every, 0.99))
	return map[string]metric{
		"throughput_inst_s":            {m.throughput(), "1/s"},
		"latency_p50_ms":               {p50, "ms"},
		"latency_p99_ms":               {p99, "ms"},
		"slo_attainment":               {b.sloAttainment(m), "frac"},
		"cpu_us_per_decision":          {m.cpuPerDecision(), "us"},
		"allocs_per_decision":          {median(allocs), "count"},
		"max_rss_mb":                   {m.rssMB, "MB"},
		"work_per_decision":            {ratio(float64(all.work), float64(all.succeeded)), "units"},
		"wasted_work_frac":             {ratio(float64(all.wasted), float64(all.work)), "frac"},
		"backend_queries_per_decision": {ratio(float64(received), float64(m.rs.Completed)), "count"},
	}
}

func (b *bench) finish(met map[string]metric, tallies ...*tally) result {
	res := result{Metrics: met, Correct: true}
	for _, t := range tallies {
		res.Attempted += t.attempted
		res.Failed += t.failures()
		if t.failed[causeWrong] > 0 {
			res.Correct = false
		}
	}
	names := make([]string, 0, len(met))
	for n := range met {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.6g %s\n", n, met[n].Value, met[n].Unit)
	}
	return res
}

// traced measures the workload untraced and then traced, each for half
// the run, and reports the per-layer metrics of the traced half.
func (b *bench) traced(dur time.Duration, schema *core.Schema) (result, error) {
	half := dur / 2
	st, _, err := b.setup(b.opts)
	if err != nil {
		return result{}, err
	}
	base, err := b.measure(st, half, nil)
	if cerr := st.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	baseCPU := base.cpuPerDecision()

	log := newSpanLog(time.Now())
	opts := b.opts
	opts.wrap = func(be runtime.Backend) (runtime.Backend, error) { return wrapBackend(be, log) }
	st, _, err = b.setup(opts)
	if err != nil {
		return result{}, err
	}
	m, err := b.measure(st, half, log)
	var capStats *api.CaptureStats
	var gmpl, unitTime float64
	if err == nil {
		capStats = st.srv.CaptureStats()
		if st.paced != nil {
			gmpl, unitTime, _ = st.paced.Stats()
		}
	}
	// Closing waits for straggling backend calls, so the span log is
	// complete and quiet afterwards.
	if cerr := st.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	b.report("closed", m.closed)
	b.report("open", m.open)

	eng := timeCore(schema, b.in, b.ref, 500*time.Millisecond)
	codec, err := timeCodecs(b.w.schema, b.in, 400*time.Millisecond)
	if err != nil {
		return result{}, fmt.Errorf("codec timing: %w", err)
	}
	l := &layerReport{met: map[string]metric{}}
	b.clientLayer(l, m)
	b.serverLayer(l, m, capStats)
	b.runtimeLayer(l, m, log, gmpl, unitTime)
	// No kept workload rides HTTP/JSON; the JSON codec is timed on the
	// same inputs for comparison with dfbin's.
	l.set("api.json_encode_ns_per_inst", codec.jsonEnc, "ns", false)
	l.set("api.json_decode_ns_per_inst", codec.jsonDec, "ns", false)
	l.set("api.bin_value_encode_ns_per_inst", codec.binEnc, "ns", true)
	l.set("api.bin_value_decode_ns_per_inst", codec.binDec, "ns", true)
	l.set("engine.core_us_per_decision", eng.usPerDecision, "us", true)
	l.set("engine.cpu_share", ratio(eng.usPerDecision, baseCPU), "frac", true)
	l.set("engine.speculative_launch_frac", eng.speculativeFrac, "frac", true)
	l.set("trace.throughput_overhead_frac", 1-ratio(m.throughput(), base.throughput()), "frac", true)
	lb, _ := base.latencyQuantiles()
	lt, _ := m.latencyQuantiles()
	l.set("trace.latency_p50_overhead_frac", ratio(lt, lb)-1, "frac", true)
	fmt.Printf("untraced half: throughput=%.1f/s latency_p50=%.4fms cpu=%.2fus/decision; traced half: throughput=%.1f/s latency_p50=%.4fms\n",
		base.throughput(), lb, baseCPU, m.throughput(), lt)
	if eng.wrong > 0 {
		return result{}, fmt.Errorf("engine core loop disagreed with engine.Run on %d decisions", eng.wrong)
	}
	if err := b.writeTrace(m, log, l); err != nil {
		return result{}, err
	}
	if len(l.na) > 0 {
		slices.Sort(l.na)
		fmt.Printf("n/a on %s (reported as measured, the layer is off or idle): %v\n", b.w.name, l.na)
	}
	return b.finish(l.met, base.closed, base.open, m.closed, m.open), nil
}

type layerReport struct {
	met map[string]metric
	na  []string
}

// set records a per-layer metric; applies=false marks it n/a for this
// workload (its layer is off), while still reporting the measured value.
func (l *layerReport) set(name string, v float64, unit string, applies bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v, applies = 0, false
	}
	l.met[name] = metric{v, unit}
	if !applies {
		l.na = append(l.na, name)
	}
}

func (b *bench) clientLayer(l *layerReport, m *measurement) {
	var rtt, lag, front []float64
	for _, s := range m.open.spans {
		lag = append(lag, float64(s.sent-s.due)/1e3)
		if s.ok {
			rtt = append(rtt, float64(s.answered-s.sent)/1e3)
			front = append(front, float64(s.answered-s.sent-s.serverNs)/1e3)
		}
	}
	l.set("client.rtt_us_p50", quantile(rtt, 0.5), "us", true)
	l.set("client.rtt_us_p99", quantile(rtt, 0.99), "us", true)
	l.set("client.gen_lag_us_p99", quantile(lag, 0.99), "us", true)
	l.set("client.frontend_us_p50", quantile(front, 0.5), "us", true)
	l.set("client.frontend_us_p99", quantile(front, 0.99), "us", true)
}

func (b *bench) serverLayer(l *layerReport, m *measurement, capStats *api.CaptureStats) {
	var shed uint64
	for name, t1 := range m.stats1.Tenants {
		t0 := m.stats0.Tenants[name]
		shed += (t1.ShedRate + t1.ShedQuota + t1.ShedQueue) - (t0.ShedRate + t0.ShedQuota + t0.ShedQueue)
	}
	multi := len(b.w.tenants) > 1
	l.set("server.shed_total", float64(shed), "count", multi)
	lo, hi := math.Inf(1), 0.0
	for _, t := range m.rs.Tenants {
		p := float64(t.P99)
		lo, hi = min(lo, p), max(hi, p)
	}
	l.set("server.tenant_p99_spread", ratio(hi, lo), "ratio", multi)
	var appended, bytes, dropped float64
	if c0, c1 := m.stats0.Capture, m.stats1.Capture; c0 != nil && c1 != nil {
		appended = float64(c1.Appended - c0.Appended)
		bytes = float64(c1.Bytes - c0.Bytes)
	}
	if capStats != nil {
		dropped = float64(capStats.Dropped)
	}
	l.set("capture.records_per_decision", ratio(appended, float64(m.rs.Completed)), "count", b.w.capture)
	l.set("capture.dropped", dropped, "count", b.w.capture)
	l.set("capture.bytes_per_record", ratio(bytes, appended), "B", b.w.capture)
}

func (b *bench) runtimeLayer(l *layerReport, m *measurement, log *spanLog, gmpl, unitTime float64) {
	srvUs := m.open.serverUs
	l.set("runtime.latency_p50_us", quantile(srvUs, 0.5), "us", true)
	l.set("runtime.latency_p99_us", quantile(srvUs, 0.99), "us", true)
	l.set("runtime.queue_depth_mean", mean(m.queueDepth), "count", true)
	qmax := 0.0
	for _, q := range m.queueDepth {
		qmax = max(qmax, q)
	}
	l.set("runtime.queue_depth_max", qmax, "count", true)

	p0, p1 := m.first(), m.last()
	kdec := float64(m.closed.inWindow) / 1000
	l.set("proc.mutex_wait_ms_per_kdecision", ratio((p1.mutexWait-p0.mutexWait)*1000, kdec), "ms", true)
	l.set("proc.sched_latency_p99_us", schedP99(p0, p1), "us", true)
	l.set("proc.gc_cpu_frac", ratio(p1.gcCPU-p0.gcCPU, p1.totalCPU-p0.totalCPU), "frac", true)
	l.set("proc.goroutines_max", float64(m.goroutinesMax), "count", true)

	rs := m.rs
	done := float64(rs.Completed)
	query := b.w.query != (runtime.QueryConfig{})
	l.set("runtime.launched_per_decision", ratio(float64(rs.Launched), done), "count", true)
	l.set("runtime.cache_hit_rate", ratio(float64(rs.CacheHits), float64(rs.Launched)), "frac", query)
	l.set("runtime.dedup_rate", ratio(float64(rs.DedupHits), float64(rs.Launched)), "frac", query)
	l.set("runtime.avg_batch_size", rs.AvgBatchSize(), "count", query)

	// Backend calls made during the measured phases: counted in full,
	// wait quantiles over the stored spans.
	var waits []float64
	log.each(func(s *span) { waits = append(waits, float64(s.dur)/1e3) })
	window := m.measureEnd.Sub(m.measureStart)
	l.set("runtime.backend_calls_per_decision", ratio(float64(log.calls.Load()), done), "count", true)
	l.set("runtime.backend_wait_us_p50", quantile(waits, 0.5), "us", b.w.simdb)
	l.set("runtime.backend_wait_us_p99", quantile(waits, 0.99), "us", b.w.simdb)
	l.set("runtime.backend_inflight_mean", ratio(float64(log.busy.Load()), float64(window)), "count", b.w.simdb)
	l.set("simdb.gmpl_avg", gmpl, "count", b.w.simdb)
	l.set("simdb.unit_time_ms", unitTime, "ms", b.w.simdb)
	if n := log.dropped.Load(); n > 0 {
		fmt.Printf("span log full: the first %d of %d backend calls are stored; wait quantiles cover those\n",
			log.calls.Load()-n, log.calls.Load())
	}
}

// writeTrace writes the traced half's spans and layer numbers under the
// work directory, one file per workload (the latest run overwrites it).
func (b *bench) writeTrace(m *measurement, log *spanLog, l *layerReport) (err error) {
	dir := filepath.Join(b.cfg.workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, b.w.name+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := newTSV(f)
	bw.line("# dfbench trace workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s commit=%s",
		b.w.name, b.cfg.seed, stdruntime.NumCPU(), stdruntime.GOMAXPROCS(0), stdruntime.Version(), b.cfg.commit)
	bw.line("# request rows: phase due_ns sent_ns answered_ns server_ns ok (ns from the phase start)")
	for _, p := range []struct {
		name string
		t    *tally
	}{{"closed", m.closed}, {"open", m.open}} {
		for _, s := range p.t.spans {
			bw.line("request\t%s\t%d\t%d\t%d\t%d\t%v", p.name, s.due, s.sent, s.answered, s.serverNs, s.ok)
		}
	}
	bw.line("# backend rows: start_ns duration_ns members (start from the traced stack's start)")
	log.each(func(s *span) { bw.line("backend\t%d\t%d\t%d", s.start, s.dur, s.n) })
	names := make([]string, 0, len(l.met))
	for n := range l.met {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		bw.line("layer\t%s\t%g\t%s", n, l.met[n].Value, l.met[n].Unit)
	}
	if err := bw.flush(); err != nil {
		return err
	}
	fmt.Printf("trace written to %s\n", path)
	return nil
}

// tsv writes formatted lines through a buffer, keeping the first error.
type tsv struct {
	w   *bufio.Writer
	err error
}

func newTSV(w io.Writer) *tsv { return &tsv{w: bufio.NewWriter(w)} }

func (t *tsv) line(format string, args ...any) {
	if t.err == nil {
		_, t.err = fmt.Fprintf(t.w, format+"\n", args...)
	}
}

func (t *tsv) flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}
