package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/simdb"
)

// requestTimeout is the per-request deadline. It is far above every
// workload's latency limit, so only a request that is lost or stuck hits
// it, and such a request costs one deadline and one counted failure.
const requestTimeout = 250 * time.Millisecond

// stack is one in-process dfsd: the backend, runtime.Service and
// server.Server on a real loopback listener, and the clients that drive
// it, one connection each (see workload.conns).
type stack struct {
	w         *workload
	paced     *runtime.PacedSim
	svc       *runtime.Service
	srv       *server.Server
	serving   chan error // the listener goroutine's result
	listening bool
	clients   []*client.Client
	capDir    string
	stopped   bool
}

// stackOptions are what differs between the set-up, untraced and traced
// stacks of one run.
type stackOptions struct {
	// wrap, if non-nil, wraps the configured backend (the traced run).
	wrap    func(runtime.Backend) (runtime.Backend, error)
	workDir string // scratch space for the capture directory
}

func newStack(w *workload, o stackOptions) (*stack, error) {
	st := &stack{w: w, serving: make(chan error, 1)}
	var backend runtime.Backend = runtime.Instant{}
	if w.simdb {
		st.paced = runtime.NewPacedSim(simdb.DefaultParams(), 1, simdbScale)
		backend = st.paced
	}
	if o.wrap != nil {
		b, err := o.wrap(backend)
		if err != nil {
			if st.paced != nil {
				st.paced.Stop()
			}
			return nil, err
		}
		backend = b
	}
	st.svc = runtime.New(runtime.Config{Backend: backend, Query: w.query})
	cfg := server.Config{
		Service: st.svc,
		// Limits far above the offered load: admission runs on every
		// request but never sheds.
		Tenant: server.TenantLimits{RatePerSec: 1e6, Burst: 100000, MaxInFlight: 4096},
	}
	if w.capture {
		dir, err := os.MkdirTemp(o.workDir, "capture-")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("capture directory: %w", err)
		}
		st.capDir = dir
		cfg.CaptureDir = dir
	}
	srv, err := server.Open(cfg)
	if err != nil {
		st.close()
		return nil, err
	}
	st.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.listening = true
	go func() { st.serving <- srv.ServeBinary(ln) }()
	addr := "dfbin://" + ln.Addr().String()
	// One client of one connection per request in flight. dfbin could
	// pipeline many requests over fewer connections, but the client's
	// pipelined writer corrupts frames on multi-core hosts (NOTES.md,
	// "Why dfbin is not pipelined").
	for i := 0; i < w.conns; i++ {
		tenant := w.tenants[i%len(w.tenants)].name
		c, err := client.New(addr, client.WithTenant(tenant), client.WithMaxConns(1),
			client.WithTimeout(requestTimeout))
		if err != nil {
			st.close()
			return nil, err
		}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

// register installs the workload's text schema, if it has one.
func (st *stack) register(ctx context.Context) error {
	if st.w.text == "" {
		return nil
	}
	_, err := st.clients[0].RegisterSchemaText(ctx, st.w.text)
	return err
}

// do sends one request of the given pool members on client i and returns
// one result per member.
func (st *stack) do(ctx context.Context, i int, in *inputs, members []int) ([]api.EvalResult, error) {
	c := st.clients[i]
	if st.w.batch == 1 {
		r, err := c.EvalValues(ctx, st.w.schema, strategy, in.pool[members[0]])
		if err != nil {
			return nil, err
		}
		return []api.EvalResult{r}, nil
	}
	srcs := make([]map[string]any, len(members))
	for j, m := range members {
		srcs[j] = api.EncodeSources(in.pool[m])
	}
	return c.EvalBatch(ctx, api.BatchRequest{Schema: st.w.schema, Strategy: strategy, Sources: srcs})
}

// stats fetches GET /v1/stats through the server's handler in-process,
// so the measurement's own bookkeeping never rides the wire under test,
// and decodes the runtime block.
func (st *stack) stats() (api.StatsResponse, runtime.Stats, error) {
	var resp api.StatsResponse
	var rs runtime.Stats
	rec := httptest.NewRecorder()
	st.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		return resp, rs, fmt.Errorf("GET /v1/stats: status %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return resp, rs, err
	}
	err := json.Unmarshal(resp.Service, &rs)
	return resp, rs, err
}

// close drains the server, stops the listeners and the backend, and
// removes the capture directory. It waits for every goroutine it started.
func (st *stack) close() error {
	if st.stopped {
		return nil
	}
	st.stopped = true
	for _, c := range st.clients {
		c.Close()
	}
	var errs []error
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := st.srv.Drain(ctx)
		cancel()
		errs = append(errs, err)
		if st.listening {
			errs = append(errs, <-st.serving)
		}
	} else {
		st.svc.Close()
	}
	if st.paced != nil {
		st.paced.Stop()
	}
	if st.capDir != "" {
		errs = append(errs, os.RemoveAll(st.capDir))
	}
	return errors.Join(errs...)
}
