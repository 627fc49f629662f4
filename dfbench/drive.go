package main

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/capture"
	"repro/internal/client"
)

// Failure causes, in report order.
const (
	causeTimeout = iota
	causeTransport
	causeShed
	causeInstance
	causeWrong
	nCauses
)

var causeNames = [nCauses]string{"timeout", "transport", "shed_after_retries", "instance_error", "wrong_decision"}

// reqSpan is one request as the client saw it, in nanoseconds since the
// phase start: when it was due (open loop; equal to sent in the closed
// loop), sent and answered, plus the largest server-reported instance
// latency among its members and how many of them were answered
// correctly.
type reqSpan struct {
	due, sent, answered int64
	serverNs            int64
	good                int
	ok                  bool // every member answered correctly
}

// tally is one phase's accounting, kept per worker and merged at the end.
type tally struct {
	attempted, succeeded int64 // decisions
	failed               [nCauses]int64
	work, wasted         int64
	// inWindow counts correct decisions answered before the phase's
	// window closed (the closed loop's throughput numerator).
	inWindow int64
	serverUs []float64
	// spans: the open loop's requests in due order; the closed loop's
	// only in a traced run.
	spans []reqSpan
	// start is when the phase began; span times are offsets from it.
	start time.Time
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.succeeded += o.succeeded
	for i := range t.failed {
		t.failed[i] += o.failed[i]
	}
	t.work += o.work
	t.wasted += o.wasted
	t.inWindow += o.inWindow
	t.serverUs = append(t.serverUs, o.serverUs...)
	t.spans = append(t.spans, o.spans...)
}

func (t *tally) failures() int64 {
	var n int64
	for _, f := range t.failed {
		n += f
	}
	return n
}

// classify maps a request error onto a failure cause.
func classify(err error) int {
	var ne net.Error
	switch {
	case errors.Is(err, client.ErrShed):
		return causeShed
	case errors.Is(err, context.DeadlineExceeded),
		errors.As(err, &ne) && ne.Timeout(),
		strings.Contains(err.Error(), "timed out"):
		return causeTimeout
	default:
		return causeTransport
	}
}

// loadgen runs the phases of one measurement against one stack.
type loadgen struct {
	st  *stack
	in  *inputs
	ref []uint64 // reference decision digest per pool index
	// traced keeps the per-request spans of the closed loop and the
	// per-decision server latencies, which only the traced run reports.
	traced bool
	// good counts the closed loop's correct decisions as they arrive.
	good atomic.Int64
}

// record accounts one answered or failed request of the given members
// and completes its span.
func (d *loadgen) record(t *tally, members []int, res []api.EvalResult, err error, sp *reqSpan, inWindow bool) {
	n := int64(len(members))
	t.attempted += n
	if err != nil {
		t.failed[classify(err)] += n
		return
	}
	var maxServer float64
	good := int64(0)
	for j, r := range res {
		switch {
		case r.Error != "":
			t.failed[causeInstance]++
			continue
		case !d.correct(&r, members[j]):
			t.failed[causeWrong]++
			continue
		}
		good++
		t.work += int64(r.Work)
		t.wasted += int64(r.WastedWork)
		if d.traced {
			t.serverUs = append(t.serverUs, r.ElapsedMs*1000)
		}
		maxServer = max(maxServer, r.ElapsedMs)
	}
	t.succeeded += good
	sp.serverNs = int64(maxServer * 1e6)
	sp.good = int(good)
	sp.ok = good == n
	if inWindow {
		t.inWindow += good
		d.good.Add(good)
	}
}

// correct compares an answer's targets with the engine's reference
// decision, under the capture digest's canonicalisation.
func (d *loadgen) correct(r *api.EvalResult, member int) bool {
	got, err := capture.DigestEval(r)
	return err == nil && got == d.ref[member]
}

// sleepPrecise blocks the calling thread in nanosleep for d.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func (d *loadgen) members(stream, k uint64) []int {
	m := make([]int, d.st.w.batch)
	for j := range m {
		m[j] = d.in.pick(stream, k, j)
	}
	return m
}

// closed keeps one request in flight on every client for dur. onSlice
// runs on the calling goroutine at the end of every slice of the window,
// the last one when the window closes and before the in-flight tail is
// collected, so process counters can bracket each slice.
func (d *loadgen) closed(ctx context.Context, dur, slice time.Duration, stream uint64, onSlice func()) *tally {
	start := time.Now()
	end := start.Add(dur)
	var next atomic.Uint64
	tallies := make([]*tally, len(d.st.clients))
	var wg sync.WaitGroup
	for i := range tallies {
		t := &tally{}
		tallies[i] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				k := next.Add(1) - 1
				m := d.members(stream, k)
				sent := time.Now()
				res, err := d.st.do(ctx, i, d.in, m)
				ans := time.Now()
				s := int64(sent.Sub(start))
				sp := reqSpan{due: s, sent: s, answered: int64(ans.Sub(start))}
				d.record(t, m, res, err, &sp, ans.Before(end))
				if d.traced {
					t.spans = append(t.spans, sp)
				}
			}
		}()
	}
	for at := start.Add(slice); ; at = at.Add(slice) {
		// A remainder shorter than half a slice joins the last slice:
		// slice rounds down, and a slice of a few nanoseconds would
		// count as one with no decisions.
		if end.Sub(at) < slice/2 {
			at = end
		}
		time.Sleep(time.Until(at))
		onSlice()
		if !at.Before(end) {
			break
		}
	}
	wg.Wait()
	total := &tally{}
	for _, t := range tallies {
		total.merge(t)
	}
	return total
}

// open sends the seeded Poisson schedule for dur: one pacing goroutine
// hands each request to its tenant's queue when it is due, and one
// goroutine per client sends from its tenant's queue. Latency runs from
// the due time, so a stall also delays every request queued behind it.
func (d *loadgen) open(ctx context.Context, dur time.Duration) *tally {
	w := d.st.w
	sched := d.in.schedule(w, dur)
	// Each tenant's arrivals queue for that tenant's connections.
	queues := make([]chan int, len(w.tenants))
	for i := range queues {
		// Sized to the whole schedule so the pacer never blocks.
		queues[i] = make(chan int, len(sched))
	}
	// spans[k] is request k's span, so they stay in due order.
	spans := make([]reqSpan, len(sched))
	start := time.Now()
	tallies := make([]*tally, len(d.st.clients))
	var wg sync.WaitGroup
	for i := range tallies {
		t := &tally{}
		tallies[i] = t
		q := queues[i%len(w.tenants)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range q {
				m := d.members(streamOpen, uint64(k))
				sent := time.Now()
				res, err := d.st.do(ctx, i, d.in, m)
				ans := time.Now()
				spans[k] = reqSpan{due: int64(sched[k].due), sent: int64(sent.Sub(start)), answered: int64(ans.Sub(start))}
				d.record(t, m, res, err, &spans[k], false)
			}
		}()
	}
	// The pacer sleeps in nanosleep on a thread of its own: the Go timer
	// wakes an idle process up to a millisecond late, which would be
	// charged to every request as latency.
	runtime.LockOSThread()
	for k, a := range sched {
		if wait := time.Until(start.Add(a.due)); wait > 0 {
			sleepPrecise(wait)
		}
		queues[a.tenant] <- k
	}
	runtime.UnlockOSThread()
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	total := &tally{spans: spans, start: start}
	for _, t := range tallies {
		total.merge(t)
	}
	return total
}
