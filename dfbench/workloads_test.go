package main

import (
	"reflect"
	"testing"
	"time"
)

func TestInputsReproducible(t *testing.T) {
	// requests renders the source vectors of the first requests, in
	// order: what the program under test receives.
	requests := func(in *inputs, stream uint64) []string {
		var out []string
		for k := uint64(0); k < 200; k++ {
			out = append(out, in.keys[in.pick(stream, k, 0)])
		}
		return out
	}
	for _, w := range workloads {
		a, b, c := newInputs(w, 7), newInputs(w, 7), newInputs(w, 8)
		for _, stream := range []uint64{streamClosed, streamOpen} {
			ra, rb, rc := requests(a, stream), requests(b, stream), requests(c, stream)
			if !reflect.DeepEqual(ra, rb) {
				t.Errorf("%s: same seed, different request inputs", w.name)
			}
			if reflect.DeepEqual(ra, rc) {
				t.Errorf("%s: different seeds, same request inputs", w.name)
			}
		}
		d := 2 * time.Second
		sa, sb, sc := a.schedule(w, d), b.schedule(w, d), c.schedule(w, d)
		if len(sa) == 0 || !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: same seed, different arrival schedules", w.name)
		}
		if reflect.DeepEqual(sa, sc) {
			t.Errorf("%s: different seeds, same arrival schedule", w.name)
		}
	}
}

// TestScheduleRate checks that the open loop offers the workload's rate
// and that tenants receive their shares.
func TestScheduleRate(t *testing.T) {
	for _, w := range workloads {
		in := newInputs(w, 1)
		d := 200 * time.Second
		sched := in.schedule(w, d)
		got := float64(len(sched)*w.batch) / d.Seconds()
		if got < 0.95*w.rate || got > 1.05*w.rate {
			t.Errorf("%s: offered %.0f decisions/s, want %.0f", w.name, got, w.rate)
		}
		counts := make([]int, len(w.tenants))
		for _, a := range sched {
			counts[a.tenant]++
		}
		for i, ts := range w.tenants {
			share := float64(counts[i]) / float64(len(sched))
			if share < ts.weight-0.03 || share > ts.weight+0.03 {
				t.Errorf("%s: tenant %s got %.3f of arrivals, want %.2f", w.name, ts.name, share, ts.weight)
			}
		}
	}
}

// TestReferencesAgreeWithCore runs every workload's reference decisions
// through the single-goroutine engine.Core loop the traced run times.
func TestReferencesAgreeWithCore(t *testing.T) {
	for _, w := range workloads {
		s, err := w.compileSchema()
		if err != nil {
			t.Fatal(err)
		}
		in := newInputs(w, 3)
		ref, err := references(s, in)
		if err != nil {
			t.Fatal(err)
		}
		if r := timeCore(s, in, ref, time.Millisecond); r.wrong != 0 || r.decisions == 0 {
			t.Errorf("%s: core loop wrong on %d of %d decisions", w.name, r.wrong, r.decisions)
		}
	}
}
