package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/runtime"
	"repro/internal/value"
)

// newTestStack builds a service + server + httptest listener + typed
// client. mod edits the server config before construction; the listener
// and client are torn down with the test, the service with Drain or
// Close by the test itself when it cares, else here.
func newTestStack(t *testing.T, svcCfg runtime.Config, mod func(*Config)) (*runtime.Service, *Server, *httptest.Server, *client.Client) {
	t.Helper()
	svc := runtime.New(svcCfg)
	cfg := Config{Service: svc}
	if mod != nil {
		mod(&cfg)
	}
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	c, err := client.New(hs.URL, client.WithTenant("t0"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		hs.Close()
		if !srv.Draining() {
			srv.Drain(context.Background())
		}
	})
	return svc, srv, hs, c
}

// post sends a raw JSON request, for tests that must see raw status
// codes and headers (the typed client hides retries).
func post(t *testing.T, hs *httptest.Server, path, tenant string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, hs.URL+path, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(api.TenantHeader, tenant)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drainBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if out == nil {
		return
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", resp.Request.URL.Path, err)
	}
}

// TestRegisterAndEval registers a text schema over the wire and evaluates
// it: the server-side default computes must be deterministic (same
// sources, same values) and synthesis expressions must evaluate exactly.
func TestRegisterAndEval(t *testing.T) {
	_, _, _, c := newTestStack(t, runtime.Config{}, nil)
	ctx := context.Background()

	ack, err := c.RegisterSchemaText(ctx, `
		schema scoring
		source amount
		query risk from amount cost 2 when amount > 0
		synth fee when notnull(risk) = amount / 10 + risk * 0
		target fee
	`)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Name != "scoring" || len(ack.Targets) != 1 || ack.Targets[0] != "fee" {
		t.Fatalf("ack = %+v", ack)
	}

	eval := func() api.EvalResult {
		res, err := c.EvalValues(ctx, "scoring", "", map[string]value.Value{"amount": value.Int(120)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Error != "" {
			t.Fatalf("instance error: %s", res.Error)
		}
		return res
	}
	r1, r2 := eval(), eval()
	if fee, _ := r1.Values["fee"].(float64); fee != 12 {
		t.Fatalf("fee = %v (%T), want 12", r1.Values["fee"], r1.Values["fee"])
	}
	if fmt.Sprint(r1.Values) != fmt.Sprint(r2.Values) {
		t.Fatalf("default computes not deterministic: %v vs %v", r1.Values, r2.Values)
	}
	if r1.Work == 0 || r1.Launched == 0 {
		t.Fatalf("accounting empty: %+v", r1)
	}

	// Built-in flows are preloaded and listed.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"pattern", "quickstart", "scoring"}
	if fmt.Sprint(stats.Schemas) != fmt.Sprint(want) {
		t.Fatalf("schemas = %v, want %v", stats.Schemas, want)
	}
}

// TestEvalErrors covers the 4xx paths: unknown schema, bad strategy, bad
// tenant header, oversized batch, empty batch, bad schema text.
func TestEvalErrors(t *testing.T) {
	_, _, hs, _ := newTestStack(t, runtime.Config{}, func(cfg *Config) { cfg.MaxBatch = 4 })

	cases := []struct {
		name   string
		path   string
		tenant string
		body   any
		want   int
	}{
		{"unknown schema", "/v1/eval", "", api.EvalRequest{Schema: "nope", Sources: map[string]any{}}, http.StatusNotFound},
		{"bad strategy", "/v1/eval", "", api.EvalRequest{Schema: "quickstart", Strategy: "XYZ", Sources: map[string]any{}}, http.StatusBadRequest},
		{"bad tenant", "/v1/eval", "has space", api.EvalRequest{Schema: "quickstart", Sources: map[string]any{}}, http.StatusBadRequest},
		{"empty batch", "/v1/eval/batch", "", api.BatchRequest{Schema: "quickstart"}, http.StatusBadRequest},
		{"oversized batch", "/v1/eval/batch", "", api.BatchRequest{Schema: "quickstart", Sources: make([]map[string]any, 5)}, http.StatusBadRequest},
		{"bad schema text", "/v1/schemas", "", api.SchemaRequest{Text: "query before schema"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := post(t, hs, tc.path, tc.tenant, tc.body)
		var e api.ErrorResponse
		drainBody(t, resp, &e)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, e.Error)
		}
		if e.Error == "" {
			t.Errorf("%s: error body empty", tc.name)
		}
	}
}

// TestSchemaOwnership: the schema namespace is shared for reads, but
// only the registering tenant may replace its entry, and built-ins are
// immutable — otherwise one tenant could silently change another's
// results.
func TestSchemaOwnership(t *testing.T) {
	_, _, hs, _ := newTestStack(t, runtime.Config{}, nil)
	text := "schema owned\nsource x\nsynth y = x + 1\ntarget y"
	reg := func(tenant, text string) int {
		resp := post(t, hs, "/v1/schemas", tenant, api.SchemaRequest{Text: text})
		drainBody(t, resp, nil)
		return resp.StatusCode
	}
	if code := reg("alice", text); code != http.StatusOK {
		t.Fatalf("initial registration: %d", code)
	}
	if code := reg("bob", text); code != http.StatusForbidden {
		t.Fatalf("foreign overwrite: %d, want 403", code)
	}
	if code := reg("alice", text); code != http.StatusOK {
		t.Fatalf("owner re-registration: %d", code)
	}
	if code := reg("alice", "schema quickstart\nsource a\nsynth b = a\ntarget b"); code != http.StatusForbidden {
		t.Fatalf("built-in overwrite: %d, want 403", code)
	}
}

// TestBatchExceedsBurst: a batch larger than the bucket can ever hold is
// rejected permanently with 400 — a 429 + Retry-After would send the
// client into a futile retry loop against an idle server.
func TestBatchExceedsBurst(t *testing.T) {
	_, _, hs, _ := newTestStack(t, runtime.Config{},
		func(cfg *Config) { cfg.Tenant = TenantLimits{RatePerSec: 100, Burst: 8} })
	srcs := make([]map[string]any, 20)
	src := api.EncodeSources(map[string]value.Value{
		"order_total": value.Int(120), "customer_id": value.Int(7),
	})
	for i := range srcs {
		srcs[i] = src
	}
	resp := post(t, hs, "/v1/eval/batch", "big", api.BatchRequest{Schema: "quickstart", Sources: srcs})
	var e api.ErrorResponse
	drainBody(t, resp, &e)
	if resp.StatusCode != http.StatusBadRequest || e.RetryAfterMs != 0 {
		t.Fatalf("status %d retry %dms (%s), want permanent 400", resp.StatusCode, e.RetryAfterMs, e.Error)
	}
}

// TestShedP99Recovers: the p99 watermark must not latch. Once the slow
// backlog drains, a quiet sampling tick clears the overload bit so
// admitted traffic can probe the backend again.
func TestShedP99Recovers(t *testing.T) {
	_, srv, hs, _ := newTestStack(t, runtime.Config{},
		func(cfg *Config) {
			cfg.ShedP99 = time.Nanosecond // every completion trips the watermark
			cfg.WatermarkInterval = 5 * time.Millisecond
			cfg.ShedQueueDepth = -1
		})
	src := api.EncodeSources(map[string]value.Value{
		"order_total": value.Int(120), "customer_id": value.Int(7),
	})
	eval := func() int {
		resp := post(t, hs, "/v1/eval", "probe", api.EvalRequest{Schema: "quickstart", Sources: src})
		drainBody(t, resp, nil)
		return resp.StatusCode
	}
	if code := eval(); code != http.StatusOK {
		t.Fatalf("first eval: %d", code)
	}
	// The completion's sample trips the watermark within a tick. Keep
	// completions flowing while we wait: with a single sample the bit is
	// set for only one watermark interval before the quiet tick clears
	// it, and a loaded machine can sleep straight through that window.
	deadline := time.Now().Add(2 * time.Second)
	for !srv.p99High.Load() && time.Now().Before(deadline) {
		eval()
		time.Sleep(time.Millisecond)
	}
	if !srv.p99High.Load() {
		t.Fatal("watermark never tripped")
	}
	// With no completions flowing, a quiet tick must clear it — and an
	// eval admitted by the probe window succeeds (its own completion may
	// re-trip the bit; retry through the oscillation).
	ok := false
	for time.Now().Before(deadline) {
		if eval() == http.StatusOK {
			ok = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !ok {
		t.Fatal("watermark latched: no eval admitted after the backlog drained")
	}
}

// TestBatchOrderAndStream: a batch response preserves request order; a
// streamed batch delivers every result tagged with its request index.
func TestBatchOrderAndStream(t *testing.T) {
	_, _, _, c := newTestStack(t, runtime.Config{}, nil)
	ctx := context.Background()

	const n = 40
	srcs := make([]map[string]any, n)
	for i := range srcs {
		srcs[i] = api.EncodeSources(map[string]value.Value{
			"order_total": value.Int(int64(10*i + 60)), // varies the score target
			"customer_id": value.Int(7),
		})
	}
	results, err := c.EvalBatch(ctx, api.BatchRequest{Schema: "quickstart", Sources: srcs})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Error != "" {
			t.Fatalf("instance %d error: %s", i, res.Error)
		}
	}

	seen := make([]bool, n)
	err = c.EvalBatchStream(ctx, api.BatchRequest{Schema: "quickstart", Sources: srcs}, func(item api.BatchItem) {
		if item.Index < 0 || item.Index >= n || seen[item.Index] {
			t.Errorf("bad or duplicate stream index %d", item.Index)
			return
		}
		seen[item.Index] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("stream missed index %d", i)
		}
	}
}

// TestAsyncLongPoll: an async eval returns 202 + ID; the result long-polls
// to pending while the instance runs, delivers exactly once, and the ID is
// scoped to the submitting tenant.
func TestAsyncLongPoll(t *testing.T) {
	_, _, hs, _ := newTestStack(t, runtime.Config{Backend: &runtime.Latency{Base: 120 * time.Millisecond}}, nil)

	resp := post(t, hs, "/v1/eval", "alice", api.EvalRequest{
		Schema: "quickstart", Async: true,
		Sources: api.EncodeSources(map[string]value.Value{
			"order_total": value.Int(120), "customer_id": value.Int(7),
		}),
	})
	var ack api.AsyncResponse
	drainBody(t, resp, &ack)
	if resp.StatusCode != http.StatusAccepted || ack.ID == "" {
		t.Fatalf("async submit: status %d ack %+v", resp.StatusCode, ack)
	}

	get := func(tenant, query string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, hs.URL+"/v1/results/"+ack.ID+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.TenantHeader, tenant)
		r, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		return r, buf.Bytes()
	}

	// Immediate poll with a tiny timeout: still pending.
	if r, body := get("alice", "?timeout=1ms"); r.StatusCode != http.StatusAccepted {
		t.Fatalf("early poll: status %d body %s", r.StatusCode, body)
	}
	// Another tenant must not see the result (capability scoping).
	if r, _ := get("bob", ""); r.StatusCode != http.StatusNotFound {
		t.Fatalf("foreign tenant poll: status %d, want 404", r.StatusCode)
	}
	// Patient poll: the result arrives.
	r, body := get("alice", "?timeout=10s")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("poll: status %d body %s", r.StatusCode, body)
	}
	var res api.EvalResult
	if err := json.Unmarshal(body, &res); err != nil || res.Error != "" {
		t.Fatalf("result: %v %+v", err, res)
	}
	if got, _ := res.Values["upgrade"].(string); got != "free 2-day shipping" {
		t.Fatalf("upgrade = %v", res.Values["upgrade"])
	}
	// Results deliver once.
	if r, _ := get("alice", ""); r.StatusCode != http.StatusNotFound {
		t.Fatalf("second fetch: status %d, want 404", r.StatusCode)
	}
}

// TestTenantQuotaShed: with a per-tenant in-flight quota and a slow
// backend, a flood sheds the overflow with 429 + Retry-After while
// admitted instances complete; the admission counters account for every
// request by cause.
func TestTenantQuotaShed(t *testing.T) {
	const quota, flood = 4, 12
	_, srv, hs, _ := newTestStack(t,
		runtime.Config{Backend: &runtime.Latency{Base: 150 * time.Millisecond}},
		func(cfg *Config) { cfg.Tenant = TenantLimits{MaxInFlight: quota} })

	var ok200, shed429 atomic.Int64
	var retryAfterSeen atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := post(t, hs, "/v1/eval", "greedy", api.EvalRequest{
				Schema: "quickstart",
				Sources: api.EncodeSources(map[string]value.Value{
					"order_total": value.Int(120), "customer_id": value.Int(7),
				}),
			})
			var e api.ErrorResponse
			drainBody(t, resp, &e)
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				shed429.Add(1)
				if resp.Header.Get("Retry-After") != "" && e.RetryAfterMs > 0 {
					retryAfterSeen.Store(true)
				}
			default:
				t.Errorf("unexpected status %d: %s", resp.StatusCode, e.Error)
			}
		}()
	}
	wg.Wait()

	if ok200.Load() < quota || shed429.Load() == 0 {
		t.Fatalf("ok=%d shed=%d, want >=%d admitted and some shed", ok200.Load(), shed429.Load(), quota)
	}
	if !retryAfterSeen.Load() {
		t.Fatal("no shed response carried Retry-After")
	}
	adm := srv.tenantFor("greedy").admission()
	if int64(adm.Accepted) != ok200.Load() || int64(adm.ShedQuota) != shed429.Load() {
		t.Fatalf("admission counters %+v disagree with observed ok=%d shed=%d", adm, ok200.Load(), shed429.Load())
	}
	if adm.InFlight != 0 {
		t.Fatalf("in-flight gauge leaked: %d", adm.InFlight)
	}
}

// TestRateLimitAndClientRetry: a tight token bucket sheds the burst
// overflow with the refill time as Retry-After, and the typed client's
// retry-on-shed turns those 429s into eventual success.
func TestRateLimitAndClientRetry(t *testing.T) {
	_, srv, hs, _ := newTestStack(t, runtime.Config{},
		func(cfg *Config) { cfg.Tenant = TenantLimits{RatePerSec: 50, Burst: 1} })

	// Raw back-to-back requests: the second inside the same refill period
	// must shed.
	src := api.EncodeSources(map[string]value.Value{
		"order_total": value.Int(120), "customer_id": value.Int(7),
	})
	resp := post(t, hs, "/v1/eval", "bursty", api.EvalRequest{Schema: "quickstart", Sources: src})
	drainBody(t, resp, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", resp.StatusCode)
	}
	resp = post(t, hs, "/v1/eval", "bursty", api.EvalRequest{Schema: "quickstart", Sources: src})
	var e api.ErrorResponse
	drainBody(t, resp, &e)
	if resp.StatusCode != http.StatusTooManyRequests || e.RetryAfterMs <= 0 {
		t.Fatalf("second request: status %d body %+v, want 429 with retry hint", resp.StatusCode, e)
	}
	if adm := srv.tenantFor("bursty").admission(); adm.ShedRate == 0 {
		t.Fatalf("shed-rate counter not bumped: %+v", adm)
	}

	// The typed client retries on shed: three sequential evals all succeed
	// despite the 1-token bucket.
	c, err := client.New(hs.URL, client.WithTenant("patient"), client.WithRetryShed(10))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		res, err := c.Eval(context.Background(), api.EvalRequest{Schema: "quickstart", Sources: src})
		if err != nil || res.Error != "" {
			t.Fatalf("eval %d: %v %s", i, err, res.Error)
		}
	}
	// A client with retries disabled surfaces the typed shed error.
	c2, err := client.New(hs.URL, client.WithTenant("patient"), client.WithRetryShed(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.Eval(context.Background(), api.EvalRequest{Schema: "quickstart", Sources: src})
	_, err = c2.Eval(context.Background(), api.EvalRequest{Schema: "quickstart", Sources: src})
	if !errors.Is(err, client.ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
}

// blockerSchema is a one-foreign-task schema whose compute blocks until
// release is closed — it pins a worker, making queue depth controllable.
func blockerSchema(t *testing.T, release chan struct{}) *core.Schema {
	t.Helper()
	return core.NewBuilder("blocker").
		Source("x").
		Foreign("y", expr.TrueExpr, []string{"x"}, 1, func(core.Inputs) value.Value {
			<-release
			return value.Int(1)
		}).
		Target("y").
		MustBuild()
}

// TestQueueWatermarkShed: when the worker queue backs up past the
// watermark, new work is shed regardless of tenant, with the queue cause
// counted; the backlog still completes.
func TestQueueWatermarkShed(t *testing.T) {
	release := make(chan struct{})
	_, srv, hs, _ := newTestStack(t,
		runtime.Config{Workers: 1}, // single worker: one blocked compute stalls the queue
		func(cfg *Config) { cfg.ShedQueueDepth = 2 })
	srv.mu.Lock()
	srv.schemas["blocker"] = newEntry(blockerSchema(t, release), "", "", 1)
	srv.mu.Unlock()

	// One blocking instance pins the worker; the next three queue up
	// behind it (depth 3 > watermark 2). All four are async so the HTTP
	// round trips complete before the flood check.
	ids := make([]string, 4)
	for i := range ids {
		resp := post(t, hs, "/v1/eval", "any", api.EvalRequest{
			Schema: "blocker", Async: true,
			Sources: map[string]any{"x": 1},
		})
		var ack api.AsyncResponse
		drainBody(t, resp, &ack)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async %d: status %d", i, resp.StatusCode)
		}
		ids[i] = ack.ID
		if i == 0 {
			// Wait for the worker to actually enter the blocked compute, so
			// the next three sit in the queue rather than racing it.
			deadline := time.Now().Add(2 * time.Second)
			for srv.svc.QueueDepth() != 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.svc.QueueDepth() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := srv.svc.QueueDepth(); d < 3 {
		t.Fatalf("queue depth %d, want >= 3", d)
	}

	resp := post(t, hs, "/v1/eval", "victim", api.EvalRequest{
		Schema: "blocker", Sources: map[string]any{"x": 2},
	})
	var e api.ErrorResponse
	drainBody(t, resp, &e)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429 queue shed", resp.StatusCode, e.Error)
	}
	if adm := srv.tenantFor("victim").admission(); adm.ShedQueue != 1 {
		t.Fatalf("shed-queue counter = %d, want 1", adm.ShedQueue)
	}

	close(release)
	for _, id := range ids {
		req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/results/"+id+"?timeout=10s", nil)
		req.Header.Set(api.TenantHeader, "any")
		r, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("backlog result %s: status %d", id, r.StatusCode)
		}
	}
}

// TestDrainUnderLiveLoad: starting the drain while evals are in flight
// 503s new work, completes every admitted instance to its caller, and
// closes the service — the wire analogue of the runtime's Close contract.
func TestDrainUnderLiveLoad(t *testing.T) {
	svc, srv, _, c := newTestStack(t,
		runtime.Config{Backend: &runtime.Latency{Base: 100 * time.Millisecond}}, nil)
	ctx := context.Background()
	src := map[string]value.Value{"order_total": value.Int(120), "customer_id": value.Int(7)}

	const inFlight = 6
	results := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		go func() {
			res, err := c.EvalValues(ctx, "quickstart", "", src)
			if err == nil && res.Error != "" {
				err = errors.New(res.Error)
			}
			results <- err
		}()
	}
	// Wait until all six are admitted (the runtime sees them in flight).
	deadline := time.Now().Add(2 * time.Second)
	for svc.Stats().Submitted-svc.Stats().Completed < inFlight && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		st, err := srv.Drain(ctx)
		if err == nil && st.Completed < inFlight {
			err = fmt.Errorf("final stats completed=%d, want >= %d", st.Completed, inFlight)
		}
		drained <- err
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is refused with the draining cause while old work flushes.
	if _, err := c.EvalValues(ctx, "quickstart", "", src); !errors.Is(err, client.ErrDraining) {
		t.Fatalf("eval during drain: %v, want ErrDraining", err)
	}
	if err := c.Health(ctx); err == nil {
		t.Fatal("healthz must fail while draining")
	}
	for i := 0; i < inFlight; i++ {
		if err := <-results; err != nil {
			t.Fatalf("in-flight eval lost during drain: %v", err)
		}
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(runtime.Request{}); !errors.Is(err, runtime.ErrClosed) && err == nil {
		t.Fatalf("service still accepting after drain: %v", err)
	}
}

// TestTenantIsolationUnderOverload is the acceptance scenario: an
// over-quota tenant's flood is shed with 429s while an in-quota tenant's
// p99 stays within 2x of its solo run. The quota caps the bully's
// admitted concurrency, so the polite tenant's latency stays pinned to
// the backend's service time instead of the bully's offered load.
func TestTenantIsolationUnderOverload(t *testing.T) {
	if raceEnabled {
		// Shedding the bully costs real CPU per 429; under -race that cost
		// inflates ~10x and the polite tail reflects instrumentation, not
		// the quota. The uninstrumented run (make test) asserts the bound.
		t.Skip("latency-bound acceptance test skipped under -race")
	}
	// The 8ms base keeps injected backend latency dominant over scheduler
	// noise, so the assertion measures the quota's effect, not the test
	// host's churn. Global task admission is sized for the offered load
	// (the 1-core default of 16 tokens would serialize both tenants in a
	// tenant-blind queue — exactly what the per-tenant quota prevents
	// needing), and backend parallelism is unbounded: the isolation being
	// proven is at admission, where the bully's overflow never reaches
	// the runtime at all.
	backend := &runtime.Latency{Base: 8 * time.Millisecond}
	svc, srv, hs, _ := newTestStack(t,
		runtime.Config{Backend: backend, MaxInFlightTasks: 512},
		func(cfg *Config) {
			cfg.Tenant = TenantLimits{MaxInFlight: 12}
			cfg.ShedQueueDepth = -1 // isolate the quota: no global shed
		})
	ctx := context.Background()
	src := map[string]value.Value{"order_total": value.Int(120), "customer_id": value.Int(7)}

	// runTenant drives a closed loop of conc workers for n instances and
	// returns nothing; latencies are read server-side per tenant.
	runTenant := func(tenant string, conc, n int, retry int) {
		c, err := client.New(hs.URL, client.WithTenant(tenant),
			client.WithRetryShed(retry), client.WithMaxConns(conc))
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if next.Add(1) > int64(n) {
						return
					}
					c.EvalValues(ctx, "quickstart", "", src) // sheds surface as errors; fine
				}
			}()
		}
		wg.Wait()
	}

	// Phase 1: the polite tenant solo.
	runTenant("polite", 8, 200, 3)
	solo := svc.Stats().Tenants["polite"]
	if solo.Completed == 0 || solo.P99 <= 0 {
		t.Fatalf("solo run recorded nothing: %+v", solo)
	}
	svc.ResetStats()

	// Phase 2: the same polite load, with a bully flooding at 48-way
	// concurrency against a 12-instance quota — its overflow sheds, and
	// (like any well-behaved client) it honors the Retry-After hints
	// rather than busy-looping the connection pool.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runTenant("bully", 48, 600, 1000)
	}()
	runTenant("polite", 8, 200, 3)
	wg.Wait()

	loaded := svc.Stats().Tenants["polite"]
	bullyAdm := srv.tenantFor("bully").admission()
	if bullyAdm.ShedQuota == 0 {
		t.Fatalf("bully was never shed: %+v", bullyAdm)
	}
	// 2x the solo p99, plus 2ms of scheduler slack so a microsecond-scale
	// solo baseline doesn't make the bound vacuously tight.
	budget := 2*solo.P99 + 2*time.Millisecond
	if loaded.P99 > budget {
		t.Fatalf("polite p99 under load %v exceeds budget %v (solo %v)", loaded.P99, budget, solo.P99)
	}
	t.Logf("polite p99 solo=%v under-load=%v (budget %v); bully accepted=%d shed=%d",
		solo.P99, loaded.P99, budget, bullyAdm.Accepted, bullyAdm.ShedQuota)
}

// TestUnadmitRefundsTokens: a request shed by a layer above the tenant
// bucket (global watermark, draining) must return its rate tokens —
// otherwise the shed layers compound and a tenant pays its rate budget
// for work that never ran.
func TestUnadmitRefundsTokens(t *testing.T) {
	tn := newTenant(TenantLimits{RatePerSec: 0.001, Burst: 2, MaxInFlight: 8})
	if ok, _, _ := tn.admit(2); !ok {
		t.Fatal("initial admit refused")
	}
	tn.unadmit(2)
	// The bucket refills at ~1 token per 1000s, so a second success can
	// only come from the refund.
	ok, cause, _ := tn.admit(2)
	if !ok {
		t.Fatalf("admit after unadmit refused (cause %v): tokens were burned", cause)
	}
	tn.release(2)
	if got := tn.inFlight.Load(); got != 0 {
		t.Fatalf("in-flight gauge = %d, want 0", got)
	}
}

// TestMaxTenants: tenant names are client-supplied, so the table is
// capped — unseen tenants past the cap shed with 429 while known
// tenants keep working.
func TestMaxTenants(t *testing.T) {
	_, srv, hs, _ := newTestStack(t, runtime.Config{},
		func(cfg *Config) { cfg.MaxTenants = 3 })
	src := api.EncodeSources(map[string]value.Value{
		"order_total": value.Int(120), "customer_id": value.Int(7),
	})
	eval := func(tenant string) int {
		resp := post(t, hs, "/v1/eval", tenant, api.EvalRequest{Schema: "quickstart", Sources: src})
		drainBody(t, resp, nil)
		return resp.StatusCode
	}
	for _, tenant := range []string{"a", "b", "c"} {
		if code := eval(tenant); code != http.StatusOK {
			t.Fatalf("tenant %s: status %d", tenant, code)
		}
	}
	for _, tenant := range []string{"d", "e"} {
		if code := eval(tenant); code != http.StatusTooManyRequests {
			t.Fatalf("over-cap tenant %s: status %d, want 429", tenant, code)
		}
	}
	if code := eval("b"); code != http.StatusOK {
		t.Fatalf("known tenant after cap: status %d", code)
	}
	srv.tmu.Lock()
	n := len(srv.tenants)
	srv.tmu.Unlock()
	if n != 3 {
		t.Fatalf("tenant table holds %d entries, want 3", n)
	}
}

// TestStatsEndpoint: the service stats round-trip as JSON and the
// per-tenant admission view matches runtime completions.
func TestStatsEndpoint(t *testing.T) {
	_, _, _, c := newTestStack(t, runtime.Config{}, nil)
	ctx := context.Background()
	src := map[string]value.Value{"order_total": value.Int(120), "customer_id": value.Int(7)}
	for i := 0; i < 5; i++ {
		if _, err := c.EvalValues(ctx, "quickstart", "", src); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var svcStats runtime.Stats
	if err := json.Unmarshal(stats.Service, &svcStats); err != nil {
		t.Fatal(err)
	}
	if svcStats.Completed != 5 {
		t.Fatalf("service completed = %d, want 5", svcStats.Completed)
	}
	if ts, ok := svcStats.Tenants["t0"]; !ok || ts.Completed != 5 {
		t.Fatalf("tenant slice = %+v, want completed 5", svcStats.Tenants)
	}
	if adm := stats.Tenants["t0"]; adm.Accepted != 5 || adm.InFlight != 0 {
		t.Fatalf("admission = %+v", adm)
	}
	if stats.Draining || stats.UptimeMs < 0 {
		t.Fatalf("stats header: %+v", stats)
	}
}
