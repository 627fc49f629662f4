package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/runtime"
	"repro/internal/simdb"
)

// fallibleOnly implements one optional capability without its batch
// counterpart — a set no repository backend has.
type fallibleOnly struct{ runtime.Instant }

func (fallibleOnly) SubmitErr(cost int, done func(error)) { done(nil) }

func newCluster() *runtime.Cluster {
	return runtime.NewCluster(runtime.ClusterConfig{Shards: 2, Replicas: 2,
		New: func(int, int) runtime.Backend { return runtime.Instant{} }})
}

func TestWrapperKeepsCapabilities(t *testing.T) {
	paced := runtime.NewPacedSim(simdb.DefaultParams(), 1, 1)
	defer paced.Stop()
	cl := newCluster()
	defer cl.Stop()
	for _, b := range []runtime.Backend{runtime.Instant{}, &runtime.Latency{}, paced, cl} {
		w, err := wrapBackend(b, newSpanLog(time.Now()))
		if err != nil {
			t.Fatalf("%T: %v", b, err)
		}
		if got, want := backendCaps(w), backendCaps(b); got != want {
			t.Errorf("%T: wrapper capabilities %05b, inner %05b", b, got, want)
		}
	}
	if _, err := wrapBackend(fallibleOnly{}, newSpanLog(time.Now())); err == nil {
		t.Error("wrapping an unsupported capability set succeeded")
	}
}

// TestWrapperSameStats runs the same instances one at a time, so the run
// is deterministic, through a bare and a wrapped backend, and demands
// identical runtime counters: the wrapper must not change the path the
// service takes.
func TestWrapperSameStats(t *testing.T) {
	w, err := workloadByName("bin-single-simdb")
	if err != nil {
		t.Fatal(err)
	}
	schema, err := w.compileSchema()
	if err != nil {
		t.Fatal(err)
	}
	in := newInputs(w, 1)
	st := engine.MustParseStrategy(strategy)
	run := func(b runtime.Backend, q runtime.QueryConfig) runtime.Stats {
		svc := runtime.New(runtime.Config{Backend: b, Workers: 1, Query: q})
		defer svc.Close()
		for i := 0; i < 300; i++ {
			res, err := svc.Do(schema, in.pool[in.pick(streamClosed, uint64(i), 0)], st)
			if err != nil || res.Err != nil {
				t.Fatalf("instance %d: %v %v", i, err, res.Err)
			}
		}
		s := svc.Stats()
		s.P50, s.P95, s.P99, s.Max, s.AvgLatency, s.Tenants = 0, 0, 0, 0, 0, nil
		return s
	}
	queries := map[string]runtime.QueryConfig{
		"direct":  {},
		"sharing": {Dedup: true, CacheSize: 64},
		// A partial batch flushes on a wall-clock window, so only the
		// batch count may differ between two runs.
		"batching": {BatchSize: 4, Dedup: true, CacheSize: 64},
	}
	backends := map[string]func() runtime.Backend{
		"instant": func() runtime.Backend { return runtime.Instant{} },
		"cluster": func() runtime.Backend {
			c := newCluster()
			t.Cleanup(c.Stop)
			return c
		},
	}
	for qn, q := range queries {
		for bn, nb := range backends {
			bare := run(nb(), q)
			log := newSpanLog(time.Now())
			log.recording.Store(true)
			wrapped, err := wrapBackend(nb(), log)
			if err != nil {
				t.Fatal(err)
			}
			got := run(wrapped, q)
			got.Cluster, bare.Cluster = nil, nil
			if q.BatchSize > 1 {
				got.Batches, bare.Batches = 0, 0
			}
			if !reflect.DeepEqual(got, bare) {
				t.Errorf("%s/%s: wrapped stats\n%+v\nbare\n%+v", bn, qn, got, bare)
			}
			if log.n.Load() == 0 {
				t.Errorf("%s/%s: no backend call traced", bn, qn)
			}
		}
	}
}
