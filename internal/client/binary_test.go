package client_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/value"
)

// echoSchema answers m = 2n, so every response names the request it
// belongs to.
const echoSchema = "schema echo\nsource n\nsynth m = n * 2\ntarget m"

// newBinServer serves a fresh runtime over dfbin on a loopback port and
// returns its address.
func newBinServer(t *testing.T) string {
	t.Helper()
	svc := runtime.New(runtime.Config{})
	srv := server.New(server.Config{Service: svc})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeBinary(ln)
	t.Cleanup(func() { srv.Drain(context.Background()) })
	return "dfbin://" + ln.Addr().String()
}

// TestBinaryConcurrentCallsShareOneConnection multiplexes many concurrent
// Eval, EvalValues and EvalBatch calls over a single dfbin connection and
// requires exactly one response per request, carrying that request's own
// answer. The connection's writer double-buffers its queue; a buffer still
// shared with the queue would be written while callers append into it,
// corrupting frames — lost or misrouted responses, or a reset connection.
// Run it with -race at GOMAXPROCS ≥ 2, where writer and callers overlap.
func TestBinaryConcurrentCallsShareOneConnection(t *testing.T) {
	addr := newBinServer(t)
	c, err := client.New(addr, client.WithTenant("mux"), client.WithMaxConns(1),
		client.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.RegisterSchemaText(ctx, echoSchema); err != nil {
		t.Fatal(err)
	}

	const callers, calls, batch = 32, 120, 4
	check := func(r api.EvalResult, n int) error {
		if r.Error != "" {
			return fmt.Errorf("n=%d: instance error %s", n, r.Error)
		}
		if got, want := fmt.Sprint(r.Values["m"]), fmt.Sprint(2*n); got != want {
			return fmt.Errorf("n=%d: m = %s, want %s (another request's response)", n, got, want)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				n := (g*calls + i) * batch
				var err error
				switch i % 3 {
				case 0:
					var r api.EvalResult
					r, err = c.Eval(ctx, api.EvalRequest{Schema: "echo", Sources: map[string]any{"n": n}})
					if err == nil {
						err = check(r, n)
					}
				case 1:
					var r api.EvalResult
					r, err = c.EvalValues(ctx, "echo", "", map[string]value.Value{"n": value.Int(int64(n))})
					if err == nil {
						err = check(r, n)
					}
				default:
					srcs := make([]map[string]any, batch)
					for k := range srcs {
						srcs[k] = map[string]any{"n": n + k}
					}
					var rs []api.EvalResult
					rs, err = c.EvalBatch(ctx, api.BatchRequest{Schema: "echo", Sources: srcs})
					for k := 0; err == nil && k < len(rs); k++ {
						err = check(rs[k], n+k)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("caller %d call %d: %w", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
