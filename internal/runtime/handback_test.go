package runtime

import (
	"fmt"
	"math/rand"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/randschema"
	"repro/internal/snapshot"
	"repro/internal/value"
)

// The completion-handback suite. A completion that arrives while its own
// launch is still inside the backend's Submit is handed back to the
// launching worker instead of crossing the worker queue; these tests pin
// that this shortcut delivers every completion exactly once, keeps the
// admission bound and the launch identity, and changes no instance's
// accounting relative to queued FIFO delivery. Each runs at GOMAXPROCS 1,
// 2 and 4; `make race` runs them under the race detector.

// forProcs runs f once per GOMAXPROCS setting, restoring the original.
func forProcs(t *testing.T, f func(t *testing.T)) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(0))
	for _, p := range []int{1, 2, 4} {
		stdruntime.GOMAXPROCS(p)
		t.Run(fmt.Sprintf("procs=%d", p), f)
	}
}

// waitFor runs f on its own goroutine and fails the test if it has not
// returned within d: a lost completion shows up as a hang.
func waitFor(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	ran := make(chan struct{})
	go func() {
		f()
		close(ran)
	}()
	select {
	case <-ran:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v: a completion was never delivered", what, d)
	}
}

// completionKind is how mixedBackend completes one query.
type completionKind int

const (
	// kindInline completes inside Submit, on the launching goroutine.
	kindInline completionKind = iota
	// kindConcurrentSame completes from another goroutine while Submit
	// waits for it: the same launch, delivered off-goroutine.
	kindConcurrentSame
	// kindConcurrentOther fires an earlier held completion — some other
	// attribute, possibly of the same instance — from another goroutine
	// while Submit waits, then holds its own.
	kindConcurrentOther
	// kindLate holds the completion for the releaser, which fires it
	// after Submit returned.
	kindLate
	numKinds
)

// mixedBackend is a Fallible test double that draws each query's
// completion kind, and whether it fails, from a seeded stream. It counts
// submissions and completions and tracks peak concurrency: a query is in
// flight from Submit entry until just before its callback runs.
type mixedBackend struct {
	failRate float64

	mu   sync.Mutex
	rng  *rand.Rand
	held []func()

	submits, completions atomic.Int64
	inflight, peak       atomic.Int64

	stop chan struct{}
	done sync.WaitGroup
}

func newMixedBackend(seed int64, failRate float64) *mixedBackend {
	b := &mixedBackend{failRate: failRate, rng: rand.New(rand.NewSource(seed)), stop: make(chan struct{})}
	b.done.Add(1)
	go b.releaser()
	return b
}

func (b *mixedBackend) SubmitErr(cost int, done func(error)) {
	b.submits.Add(1)
	n := b.inflight.Add(1)
	for p := b.peak.Load(); n > p && !b.peak.CompareAndSwap(p, n); p = b.peak.Load() {
	}
	b.mu.Lock()
	kind := completionKind(b.rng.Intn(int(numKinds)))
	var err error
	if b.rng.Float64() < b.failRate {
		err = ErrInjected
	}
	b.mu.Unlock()
	fire := func() {
		b.inflight.Add(-1)
		b.completions.Add(1)
		done(err)
	}
	switch kind {
	case kindInline:
		fire()
	case kindConcurrentSame:
		onOtherGoroutine(fire)
	case kindConcurrentOther:
		if h := b.take(); h != nil {
			onOtherGoroutine(h)
		}
		b.hold(fire)
	case kindLate:
		b.hold(fire)
	}
}

func (b *mixedBackend) Submit(cost int, done func()) {
	b.SubmitErr(cost, func(error) { done() })
}

// SubmitBatchErr runs a combined batch as one query.
func (b *mixedBackend) SubmitBatchErr(costs []int, done func(error)) {
	total := 0
	for _, c := range costs {
		total += c
	}
	b.SubmitErr(total, done)
}

func (b *mixedBackend) SubmitBatch(costs []int, done func()) {
	b.SubmitBatchErr(costs, func(error) { done() })
}

// onOtherGoroutine runs f on a fresh goroutine and waits for it.
func onOtherGoroutine(f func()) {
	ran := make(chan struct{})
	go func() {
		f()
		close(ran)
	}()
	<-ran
}

func (b *mixedBackend) hold(f func()) {
	b.mu.Lock()
	b.held = append(b.held, f)
	b.mu.Unlock()
}

func (b *mixedBackend) take() func() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.held) == 0 {
		return nil
	}
	f := b.held[0]
	b.held = b.held[1:]
	return f
}

// releaser fires held completions, oldest first, until stopped.
func (b *mixedBackend) releaser() {
	defer b.done.Done()
	for {
		select {
		case <-b.stop:
			return
		case <-time.After(50 * time.Microsecond):
		}
		for f := b.take(); f != nil; f = b.take() {
			f()
		}
	}
}

// Stop ends the releaser; call after the service has drained.
func (b *mixedBackend) Stop() {
	close(b.stop)
	b.done.Wait()
}

// handbackWorkload is a fixed mix of random schemas and the Table 1
// pattern, each with its oracle, over a rotating strategy mix.
type handbackInstance struct {
	schema   *core.Schema
	sources  map[string]value.Value
	strategy engine.Strategy
	oracle   *snapshot.Snapshot
}

func handbackWorkload(seed int64, n int) []handbackInstance {
	strategies := engine.Strategies("PSE100", "PCE0", "NCC0", "PSC40", "NSE60", "PCE100")
	rng := rand.New(rand.NewSource(seed))
	g := gen.Generate(gen.Default())
	var schemas []*core.Schema
	for i := 0; i < 12; i++ {
		schemas = append(schemas, randschema.Generate(rand.New(rand.NewSource(rng.Int63())), randschema.Config{}))
	}
	out := make([]handbackInstance, n)
	for i := range out {
		in := handbackInstance{strategy: strategies[i%len(strategies)]}
		if i%4 == 0 {
			in.schema, in.sources = g.Schema, g.SourceValues()
		} else {
			in.schema = schemas[rng.Intn(len(schemas))]
			in.sources = randschema.RandomSources(rng, in.schema)
		}
		in.oracle = snapshot.Complete(in.schema, in.sources)
		out[i] = in
	}
	return out
}

// TestHandbackMixedCompletions drives instances over mixedBackend, with
// and without the query layer, and checks exactly-once delivery (every
// Done fires once, every completion retires its reference — a lost one
// hangs Close, a doubled one panics the drain), oracle agreement for
// instances whose tasks all succeeded, the launch identity, and the
// admission bound on backend concurrency.
func TestHandbackMixedCompletions(t *testing.T) {
	const bound = 6
	work := handbackWorkload(7, 240)
	layers := []struct {
		name  string
		query QueryConfig
	}{
		{"direct", QueryConfig{}},
		{"query-layer", QueryConfig{BatchSize: 3, BatchWindow: 50 * time.Microsecond, Dedup: true, CacheSize: 128}},
	}
	forProcs(t, func(t *testing.T) {
		for _, layer := range layers {
			t.Run(layer.name, func(t *testing.T) {
				b := newMixedBackend(11, 0.1)
				svc := New(Config{Backend: b, Workers: 4, MaxInFlightTasks: bound, Query: layer.query})
				calls := make([]atomic.Int32, len(work))
				var wg sync.WaitGroup
				var bad, failedInsts atomic.Int64
				var firstErr atomic.Value
				var sumLaunched atomic.Int64
				wg.Add(len(work))
				for i, w := range work {
					err := svc.Submit(Request{
						Schema: w.schema, Sources: w.sources, Strategy: w.strategy,
						Done: func(r *engine.Result) {
							defer wg.Done()
							calls[i].Add(1)
							sumLaunched.Add(int64(r.Launched))
							switch {
							case r.Err != nil:
								bad.Add(1)
								firstErr.CompareAndSwap(nil, r.Err.Error())
							case r.Failures > 0:
								failedInsts.Add(1) // ⟂ deliveries: no oracle to match
							default:
								if err := snapshot.CheckAgainstOracle(r.Snapshot, w.oracle); err != nil {
									bad.Add(1)
									firstErr.CompareAndSwap(nil, err.Error())
								}
							}
						},
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				waitFor(t, 20*time.Second, "instances", wg.Wait)
				waitFor(t, 20*time.Second, "Close", svc.Close)
				b.Stop()

				for i := range calls {
					if n := calls[i].Load(); n != 1 {
						t.Fatalf("instance %d: Done ran %d times", i, n)
					}
				}
				if n := bad.Load(); n != 0 {
					t.Fatalf("%d bad instances; first: %v", n, firstErr.Load())
				}
				if failedInsts.Load() == 0 {
					t.Error("no instance saw a failed task: the fault mix is not exercised")
				}
				if s, c := b.submits.Load(), b.completions.Load(); s != c {
					t.Fatalf("backend: %d submits, %d completions", s, c)
				}
				if p := b.peak.Load(); p > bound {
					t.Fatalf("peak backend concurrency %d exceeds MaxInFlightTasks %d", p, bound)
				}
				st := svc.Stats()
				if st.Launched != uint64(sumLaunched.Load()) {
					t.Fatalf("Stats.Launched %d != per-instance sum %d", st.Launched, sumLaunched.Load())
				}
				if layer.query.enabled() {
					if got := st.BackendQueries + st.DedupHits + st.CacheHits; st.Launched != got {
						t.Fatalf("launch identity: Launched %d != BackendQueries %d + DedupHits %d + CacheHits %d",
							st.Launched, st.BackendQueries, st.DedupHits, st.CacheHits)
					}
				} else if st.Launched != uint64(b.submits.Load()) {
					t.Fatalf("direct path: Launched %d != backend submits %d", st.Launched, b.submits.Load())
				}
			})
		}
	})
}

// fifoBackend defers every completion and fires them in submission order,
// only from a pump instance's Done callback. That callback runs on the
// service's single worker between jobs, when no launch is in progress, so
// no completion can be handed back: each crosses the worker queue, as in
// a service without handback.
type fifoBackend struct {
	mu      sync.Mutex
	pending []func()
	fired   int
	kick    chan struct{}
}

func (b *fifoBackend) Submit(cost int, done func()) {
	b.mu.Lock()
	b.pending = append(b.pending, done)
	b.mu.Unlock()
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

func (b *fifoBackend) fireAll() {
	b.mu.Lock()
	fire := b.pending
	b.pending = nil
	b.fired += len(fire)
	b.mu.Unlock()
	for _, f := range fire {
		f()
	}
}

// TestHandbackMatchesFIFODelivery: handing completions back changes no
// instance's accounting. Every instance's Work, WastedWork and Launched
// on an Instant service (all completions handed back) equal those on a
// one-worker service whose backend defers every completion through the
// worker queue in FIFO order.
func TestHandbackMatchesFIFODelivery(t *testing.T) {
	work := handbackWorkload(3, 120)
	pump, err := core.NewBuilder("pump").
		Source("x").
		SynthesisExpr("y", expr.TrueExpr, expr.MustParse("x + 1")).
		Target("y").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	pumpSources := map[string]value.Value{"x": value.Int(1)}

	type acct struct{ work, wasted, launched int }
	run := func(t *testing.T, svc *Service) []acct {
		out := make([]acct, len(work))
		var wg sync.WaitGroup
		wg.Add(len(work))
		for i, w := range work {
			if err := svc.Submit(Request{
				Schema: w.schema, Sources: w.sources, Strategy: w.strategy,
				Done: func(r *engine.Result) {
					if r.Err != nil {
						t.Errorf("instance %d: %v", i, r.Err)
					}
					out[i] = acct{r.Work, r.WastedWork, r.Launched}
					wg.Done()
				},
			}); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 20*time.Second, "instances", wg.Wait)
		return out
	}

	forProcs(t, func(t *testing.T) {
		instant := New(Config{Backend: Instant{}})
		want := run(t, instant)
		instant.Close()

		fb := &fifoBackend{kick: make(chan struct{}, 1)}
		// Unbounded admission: a worker blocked on a token would never run
		// the pump that releases it.
		fifo := New(Config{Backend: fb, Workers: 1, MaxInFlightTasks: 1 << 20})
		stop := make(chan struct{})
		pumped := make(chan struct{})
		go func() {
			defer close(pumped)
			for {
				select {
				case <-stop:
					return
				case <-fb.kick:
				}
				ran := make(chan struct{})
				if err := fifo.Submit(Request{Schema: pump, Sources: pumpSources,
					Strategy: engine.MustParseStrategy("PSE100"),
					Done: func(*engine.Result) {
						fb.fireAll()
						close(ran)
					}}); err != nil {
					t.Error(err)
					return
				}
				<-ran
			}
		}()
		got := run(t, fifo)
		// Stragglers of early-terminated instances still need the pump;
		// stop it only once every launch has been fired.
		for {
			fb.mu.Lock()
			settled := len(fb.pending) == 0 && fb.fired == int(fifo.Stats().Launched)
			fb.mu.Unlock()
			if settled {
				break
			}
			time.Sleep(time.Millisecond)
		}
		close(stop)
		<-pumped
		waitFor(t, 20*time.Second, "Close", fifo.Close)

		for i := range work {
			if got[i] != want[i] {
				t.Errorf("instance %d (%s, %s): FIFO delivery %+v, handback %+v",
					i, work[i].schema.Name(), work[i].strategy, got[i], want[i])
			}
		}
	})
}
