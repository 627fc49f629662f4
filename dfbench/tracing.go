package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
)

// span is one backend call: its start in nanoseconds since the trace
// origin and its duration, kept to 16 bytes because a batch workload
// makes tens of calls per decision.
type span struct {
	start int64
	dur   uint32 // nanoseconds, saturating at about 4.3 s
	n     uint32 // members of a batch call, 1 otherwise
}

// The span store holds at most 2^21 spans (32 MiB); a batch workload
// makes tens of backend calls per decision and would outgrow any
// fixed store in a long run.
const (
	chunkBits = 16
	chunkSize = 1 << chunkBits
	maxChunks = 32
)

// spanLog is an append-only in-memory span store that many goroutines
// fill without a shared lock: a slot index from one atomic add, storage
// in fixed chunks allocated on first touch. It records only while
// recording is set. Every recorded call is counted in calls and busy;
// spans past the store's capacity are counted in dropped, not stored.
// Read it only after every writer has finished.
type spanLog struct {
	origin    time.Time
	recording atomic.Bool
	calls     atomic.Int64
	busy      atomic.Int64 // nanoseconds summed over recorded calls
	n         atomic.Int64
	dropped   atomic.Int64
	chunks    [maxChunks]atomic.Pointer[[chunkSize]span]
}

func newSpanLog(origin time.Time) *spanLog { return &spanLog{origin: origin} }

func (l *spanLog) now() int64 { return int64(time.Since(l.origin)) }

func (l *spanLog) add(s span) {
	if !l.recording.Load() {
		return
	}
	l.calls.Add(1)
	l.busy.Add(int64(s.dur))
	i := l.n.Add(1) - 1
	c := i >> chunkBits
	if c >= maxChunks {
		l.dropped.Add(1)
		return
	}
	p := l.chunks[c].Load()
	if p == nil {
		fresh := new([chunkSize]span)
		if l.chunks[c].CompareAndSwap(nil, fresh) {
			p = fresh
		} else {
			p = l.chunks[c].Load()
		}
	}
	p[i&(chunkSize-1)] = s
}

// each calls fn on every stored span, without copying them.
func (l *spanLog) each(fn func(s *span)) {
	n := min(l.n.Load(), maxChunks*chunkSize)
	for i := int64(0); i < n; i += chunkSize {
		p := l.chunks[i>>chunkBits].Load()
		for j := range p[:min(chunkSize, n-i)] {
			fn(&p[j])
		}
	}
}

// Optional backend capabilities, as bits.
const (
	capBatch = 1 << iota
	capFallible
	capFallibleBatch
	capRouted
	capRoutedBatch
)

func backendCaps(b runtime.Backend) int {
	caps := 0
	if _, ok := b.(runtime.BatchExec); ok {
		caps |= capBatch
	}
	if _, ok := b.(runtime.Fallible); ok {
		caps |= capFallible
	}
	if _, ok := b.(runtime.FallibleBatch); ok {
		caps |= capFallibleBatch
	}
	if _, ok := b.(runtime.Routed); ok {
		caps |= capRouted
	}
	if _, ok := b.(runtime.RoutedBatch); ok {
		caps |= capRoutedBatch
	}
	return caps
}

// tracer records one span per backend call, from submission to the
// completion callback. The runtime picks its launch path from the
// optional interfaces a backend implements, so each wrapper type below
// implements exactly the capability set of one family of repository
// backends; wrapBackend refuses any other set rather than change the path.
type tracer struct {
	inner runtime.Backend
	log   *spanLog
}

func (t *tracer) done(start int64, n int) {
	dur := min(t.log.now()-start, math.MaxUint32)
	t.log.add(span{start: start, dur: uint32(dur), n: uint32(n)})
}

func (t *tracer) Submit(cost int, done func()) {
	s := t.log.now()
	t.inner.Submit(cost, func() { t.done(s, 1); done() })
}

type batchTracer struct{ *tracer }

func (t batchTracer) SubmitBatch(costs []int, done func()) {
	s := t.log.now()
	t.inner.(runtime.BatchExec).SubmitBatch(costs, func() { t.done(s, len(costs)); done() })
}

type fallibleTracer struct{ *tracer }

func (t fallibleTracer) SubmitErr(cost int, done func(error)) {
	s := t.log.now()
	t.inner.(runtime.Fallible).SubmitErr(cost, func(err error) { t.done(s, 1); done(err) })
}

func (t fallibleTracer) SubmitBatchErr(costs []int, done func(error)) {
	s := t.log.now()
	t.inner.(runtime.FallibleBatch).SubmitBatchErr(costs, func(err error) { t.done(s, len(costs)); done(err) })
}

type routedTracer struct{ *tracer }

func (t routedTracer) SubmitRouted(hash uint64, cost int, done func(error)) {
	s := t.log.now()
	t.inner.(runtime.Routed).SubmitRouted(hash, cost, func(err error) { t.done(s, 1); done(err) })
}

// SubmitRoutedBatch records one span per member: members complete one
// by one as their partition's sub-batch returns.
func (t routedTracer) SubmitRoutedBatch(hashes []uint64, costs []int, each func(i int, err error)) {
	s := t.log.now()
	t.inner.(runtime.RoutedBatch).SubmitRoutedBatch(hashes, costs, func(i int, err error) { t.done(s, 1); each(i, err) })
}

// wrapBackend wraps b so every call into it is traced into log.
func wrapBackend(b runtime.Backend, log *spanLog) (runtime.Backend, error) {
	t := &tracer{inner: b, log: log}
	switch caps := backendCaps(b); caps {
	case 0: // a plain Backend
		return t, nil
	case capBatch: // Instant
		return struct {
			*tracer
			batchTracer
		}{t, batchTracer{t}}, nil
	case capBatch | capFallible | capFallibleBatch: // Latency, PacedSim
		return struct {
			*tracer
			batchTracer
			fallibleTracer
		}{t, batchTracer{t}, fallibleTracer{t}}, nil
	case capBatch | capFallible | capFallibleBatch | capRouted | capRoutedBatch: // Cluster
		return struct {
			*tracer
			batchTracer
			fallibleTracer
			routedTracer
		}{t, batchTracer{t}, fallibleTracer{t}, routedTracer{t}}, nil
	default:
		return nil, fmt.Errorf("no traced wrapper for backend %T with capability set %05b", b, caps)
	}
}
