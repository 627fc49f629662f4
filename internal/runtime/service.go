package runtime

import (
	"context"
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/value"
)

// Request asks the service to execute one decision flow instance.
type Request struct {
	// Schema is the decision flow to execute.
	Schema *core.Schema
	// Sources are the instance's source-attribute values.
	Sources map[string]value.Value
	// SourceSlots, when non-nil, supplies the source values as a dense
	// per-AttrID slice instead of Sources (which is then ignored):
	// SourceSlots[id] is the value of source attribute id, entries at
	// non-source IDs are ignored, and a short slice leaves the remaining
	// sources ⟂. The binary wire front end decodes frames straight into
	// pooled slot buffers and submits them here, skipping the name-keyed
	// map. The service reads the slice only until Done is invoked (it is
	// consumed when the instance initializes, which happens no later);
	// callers may recycle the buffer once Done returns.
	SourceSlots []value.Value
	// Strategy selects the optimization options (e.g. "PSE100").
	Strategy engine.Strategy
	// Done, if non-nil, is invoked once when the instance reaches a
	// terminal snapshot (or fails). It runs on a service worker; the
	// Result — including its Snapshot — is only valid until Done returns,
	// because the service recycles the instance's state. Clone what you
	// keep. Result.Elapsed is the wall-clock latency in milliseconds.
	Done func(*engine.Result)
	// Ctx, if non-nil, cancels the instance: once Ctx is done the instance
	// aborts at its next step instead of launching further work (tasks
	// already on the backend run to completion and are charged as waste).
	// The abort completes the instance with Result.Err wrapping Ctx.Err().
	// DoContext additionally nudges the abort immediately on cancellation.
	Ctx context.Context
	// Tenant, if non-empty, attributes this instance to a tenant in the
	// service's stats (per-tenant completion counts and latency
	// percentiles in Stats.Tenants). The empty tenant is not tracked.
	Tenant string
	// Shadow marks the instance as background comparison work (the
	// server's shadow-evaluation path): it executes normally but is kept
	// out of the serving metrics — completion counts, latency percentiles,
	// Submitted — so overload shedding and SLO reporting see only the live
	// traffic. Shadow instances count under Stats.ShadowSubmitted /
	// ShadowCompleted instead.
	Shadow bool
}

// Config configures a Service.
type Config struct {
	// Backend is the external database queries execute against.
	// Defaults to Instant{}.
	Backend Backend
	// Workers is the number of goroutines stepping instances.
	// Defaults to GOMAXPROCS.
	Workers int
	// MaxInFlightTasks bounds the database tasks in flight across all
	// instances (global admission control): launches beyond the bound
	// wait for completions. With the query layer enabled the bound
	// applies to unique backend queries — deduplicated and cached
	// launches put no task on the database and consume no admission.
	// Defaults to 16× Workers.
	MaxInFlightTasks int
	// Query configures the shared query layer between instances and the
	// Backend: cross-instance batching, single-flight deduplication of
	// identical queries, and the attribute-result cache. The zero value
	// disables the layer entirely (launches go straight to the Backend).
	Query QueryConfig
}

// Service executes decision flow instances concurrently in wall-clock
// time: Submit enqueues an instance; a pool of workers drives each one
// through the shared engine.Core loop; foreign tasks run on the Backend
// under a global in-flight bound. Per-instance state (snapshot,
// prequalifier, scheduler scratch) is pooled, so steady-state serving
// performs no per-instance allocation.
//
// All methods are safe for concurrent use.
type Service struct {
	cfg     Config
	queue   jobQueue
	tokens  chan struct{}
	pool    sync.Pool
	shards  []shard
	disp    *dispatcher    // shared query layer; nil when Config.Query is off
	active  sync.WaitGroup // one count per unretired instance
	workers sync.WaitGroup

	// Backend capabilities, resolved once. routed backends (Cluster) get
	// the query's sharing-identity hash for consistent shard placement;
	// fallible ones report failures, which complete the task as failed
	// (value ⟂) instead of silently succeeding.
	routed   Routed
	fallible Fallible
	routeSeq atomic.Uint64 // spreads unroutable direct launches over shards

	// closeMu makes Submit and Close safe to race: submits hold the read
	// side across the accept-and-enqueue step, so once Close's write lock
	// falls every later Submit observes closed and no active.Add can slip
	// past active.Wait.
	closeMu   sync.RWMutex
	closed    bool
	submitted atomic.Uint64
	// shadowSubmitted counts Request.Shadow submissions, kept apart from
	// submitted so the live Submitted/Completed pair stays an identity.
	shadowSubmitted atomic.Uint64
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("runtime: service closed")

// New starts a service with the given configuration.
func New(cfg Config) *Service {
	if cfg.Backend == nil {
		cfg.Backend = Instant{}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = stdruntime.GOMAXPROCS(0)
	}
	if cfg.MaxInFlightTasks <= 0 {
		cfg.MaxInFlightTasks = 16 * cfg.Workers
	}
	s := &Service{
		cfg:    cfg,
		tokens: make(chan struct{}, cfg.MaxInFlightTasks),
		shards: make([]shard, cfg.Workers),
	}
	s.routed, _ = cfg.Backend.(Routed)
	s.fallible, _ = cfg.Backend.(Fallible)
	if cfg.Query.enabled() {
		s.disp = newDispatcher(cfg.Backend, s.tokens, cfg.Query)
	}
	s.queue.cond.L = &s.queue.mu
	s.pool.New = func() any { return &inst{svc: s} }
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(&s.shards[i])
	}
	return s
}

// Submit enqueues one instance for execution. It returns immediately; the
// request's Done callback reports completion.
func (s *Service) Submit(req Request) error {
	_, _, err := s.submit(req)
	return err
}

// SubmitCancel is Submit returning a cancel handle: calling it aborts the
// instance promptly (it stops launching work and completes with
// Result.Err wrapping cause), even while the instance idles on a slow
// backend query. Cancel after completion is a no-op; it is safe to call
// from any goroutine, any number of times. DoContext wires it to a
// context; the network front end wires it to client disconnects.
func (s *Service) SubmitCancel(req Request) (cancel func(cause error), err error) {
	in, gen, err := s.submit(req)
	if err != nil {
		return nil, err
	}
	return func(cause error) {
		if cause == nil {
			cause = context.Canceled
		}
		s.queue.push(job{in: in, gen: gen, cancel: true, cancelErr: cause})
	}, nil
}

// submit is Submit returning the accepted instance and its generation —
// the handle DoContext needs to nudge a cancellation at the instance.
func (s *Service) submit(req Request) (*inst, uint64, error) {
	if req.Schema == nil {
		return nil, 0, errors.New("runtime: request needs a Schema")
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return nil, 0, ErrClosed
	}
	in := s.pool.Get().(*inst)
	in.req = req
	in.start = time.Now()
	// The generation stamps this occupancy of the pooled state: a cancel
	// job carrying an older generation finds the instance recycled and
	// does nothing. Submit owns the instance exclusively here (no job
	// references it yet), and the queue's lock orders the store before
	// any worker pop.
	gen := in.gen.Add(1)
	if req.Shadow {
		s.shadowSubmitted.Add(1)
	} else {
		s.submitted.Add(1)
	}
	s.active.Add(1)
	s.queue.push(job{in: in, begin: true})
	return in, gen, nil
}

// Do executes one instance synchronously and returns an independent result
// (snapshot cloned out of the pooled state).
func (s *Service) Do(schema *core.Schema, sources map[string]value.Value, st engine.Strategy) (*engine.Result, error) {
	return s.DoContext(context.Background(), schema, sources, st)
}

// DoContext is Do with cancellation: when ctx is done before the instance
// completes, the instance is aborted — it stops launching work, completes
// immediately with Result.Err wrapping ctx.Err(), and any tasks already on
// the backend finish as accounted waste. The (partial) result is returned
// either way; inspect Result.Err to distinguish.
func (s *Service) DoContext(ctx context.Context, schema *core.Schema, sources map[string]value.Value, st engine.Strategy) (*engine.Result, error) {
	var out engine.Result
	done := make(chan struct{})
	cancel, err := s.SubmitCancel(Request{
		Schema:   schema,
		Sources:  sources,
		Strategy: st,
		Ctx:      ctx,
		Done: func(r *engine.Result) {
			out = *r
			out.Snapshot = r.Snapshot.Clone()
			close(done)
		},
	})
	if err != nil {
		return nil, err
	}
	select {
	case <-done:
	case <-ctx.Done():
		// Nudge the abort: an instance idling on a slow backend query has
		// no upcoming step at which to notice the cancellation, so feed it
		// one. The generation check makes a late nudge a no-op.
		cancel(ctx.Err())
		<-done
	}
	return &out, nil
}

// ErrNoQueryLayer rejects peer routing on a service without sharing
// tables: homing queries on one node is meaningless unless that node
// deduplicates or caches them.
var ErrNoQueryLayer = errors.New("runtime: peer routing needs the query layer's sharing tables (dedup or cache)")

// InstallPeerRouter wires a front-end peer router into the query layer:
// every keyed launch consults it before the local sharing tables, so each
// sharing identity is classified at its one home node in the fleet. It is
// installed after construction because the router (one layer up, in the
// server) needs the serving stack that needs this service first.
func (s *Service) InstallPeerRouter(p PeerExec) error {
	if s.disp == nil || (!s.disp.cfg.Dedup && s.disp.cfg.CacheSize == 0) {
		return ErrNoQueryLayer
	}
	s.disp.peer.Store(&peerExecBox{p: p})
	return nil
}

// ServePeerQuery executes one attribute query forwarded in by a peer
// front-end node through this node's sharing tables: a cache hit, an
// attach to the identical in-flight query, or a fresh backend flight —
// exactly what a local launch of the same identity would do, minus the
// peer-router consult (the forwarder already resolved this node as the
// home, so forwards cannot loop). done is invoked exactly once with the
// backend verdict; the forwarder's waiters share this node's fate. The
// call may block on backend admission — callers run it off any latency-
// sensitive loop.
func (s *Service) ServePeerQuery(schema *core.Schema, id core.AttrID, args []byte, cost int, done func(error)) error {
	d := s.disp
	if d == nil || (!d.cfg.Dedup && d.cfg.CacheSize == 0) {
		return ErrNoQueryLayer
	}
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return ErrClosed
	}
	s.active.Add(1)
	s.closeMu.RUnlock()
	d.peerServed.Add(1)
	key := queryKey{schema: schema, id: id, args: string(args)}
	d.submitKeyed(key, hashKey(key), cost, func(err error) {
		done(err)
		s.active.Done()
	})
	return nil
}

// Close stops accepting new instances, waits for every submitted instance
// to finish (including stragglers of early-terminated instances), and
// shuts the workers down.
func (s *Service) Close() {
	s.closeMu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.closeMu.Unlock()
	if wasClosed {
		return
	}
	s.active.Wait()
	s.queue.close()
	s.workers.Wait()
	if s.disp != nil {
		s.disp.stop()
	}
}

// worker steps instances: begin jobs initialize a pooled instance and run
// its first advance; completion jobs feed one finished database task back
// into the instance's loop.
func (s *Service) worker(sh *shard) {
	defer s.workers.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		switch {
		case j.begin:
			j.in.begin(sh)
		case j.cancel:
			j.in.cancelJob(sh, j.gen, j.cancelErr)
		default:
			j.in.finishTask(sh, j.id, j.failed)
		}
	}
}

// taskDone is the backend completion path: release the admission token and
// deliver the completion. It must stay cheap and non-blocking — it runs on
// backend goroutines (timers, pacers) and, for synchronous backends, inside
// the launching worker's Submit call. A non-nil err means the query
// terminally failed (every cluster retry exhausted): the task completes as
// failed, delivering ⟂.
func (s *Service) taskDone(in *inst, id core.AttrID, err error) {
	<-s.tokens
	s.deliver(in, id, err != nil)
}

// taskDoneShared is the completion path for launches routed through the
// query layer: admission tokens there belong to unique backend queries
// (acquired and released by the dispatcher), not to per-instance launches
// — a deduplicated or cached launch puts no new task on the database, so
// it must not consume database admission. This only delivers.
func (s *Service) taskDoneShared(in *inst, id core.AttrID, err error) {
	s.deliver(in, id, err != nil)
}

// deliver hands a completion back to the worker still launching it (see
// inst.hand), or else queues it for the worker pool.
func (s *Service) deliver(in *inst, id core.AttrID, failed bool) {
	if in.handBack(id, failed) {
		return
	}
	s.queue.push(job{in: in, id: id, failed: failed})
}

// --- instance ---

// inst is one pooled wall-clock instance: the shared engine.Core loop plus
// the bookkeeping that serializes concurrent completions. mu guards all
// fields below it; the lock is held while stepping the core and while
// submitting launches (safe: completion delivery never blocks on it).
type inst struct {
	svc   *Service
	req   Request
	start time.Time
	// gen stamps each occupancy of this pooled state (incremented by
	// submit); cancel jobs carry the generation they target so a nudge
	// arriving after recycling is inert.
	gen atomic.Uint64

	// hand is the completion-handback word. While drive is inside the
	// backend call that launches attribute id, it holds id<<handBits |
	// handLaunching; a completion of that launch arriving meanwhile — from
	// the backend's Submit itself or from any other goroutine — swaps in
	// handOK or handFailed instead of queueing, and drive applies it after
	// the call returns. The id tag keeps a concurrent completion of some
	// other attribute of this instance from claiming the slot. Outside a
	// launch the word is handIdle.
	hand atomic.Uint64

	mu          sync.Mutex
	core        engine.Core
	res         engine.Result
	outstanding int // backend tasks submitted but not yet completed
	finalized   bool
	// begunGen is the generation whose begin job has initialized the
	// state; a cancel nudge only acts between begin and finalize of its
	// own generation (before begin, the drive-time ctx check catches the
	// cancellation anyway).
	begunGen uint64
	refs     int // completion callbacks + result readers keeping the state alive
	// doneFns caches one completion closure per attribute so steady-state
	// launches allocate nothing; okFns are their error-less adapters for
	// backends without outcome reporting.
	doneFns []func(error)
	okFns   []func()
	// keyBuf is the scratch buffer for rendering query sharing identities.
	keyBuf []byte
	// handed queues the completions claimed through hand, in launch order;
	// drive applies handed[next:] one at a time, as a FIFO worker would.
	handed []handedTask
	next   int
}

// handedTask is one completion handed back to its launching worker.
type handedTask struct {
	id     core.AttrID
	failed bool
}

// States of inst.hand, in its low handBits bits.
const (
	handIdle      = 0
	handLaunching = 1
	handOK        = 2
	handFailed    = 3
	handBits      = 2
)

// handBack claims a completion of attribute id for the worker that is
// still inside the backend call launching it, reporting false when no such
// launch is in progress (the caller then queues the completion).
func (in *inst) handBack(id core.AttrID, failed bool) bool {
	tag := uint64(id) << handBits
	st := uint64(handOK)
	if failed {
		st = handFailed
	}
	return in.hand.CompareAndSwap(tag|handLaunching, tag|st)
}

// begin initializes the pooled state for the new request and runs the
// first advance.
func (in *inst) begin(sh *shard) {
	in.mu.Lock()
	if in.req.SourceSlots != nil {
		in.core.ResetSlots(in.req.Schema, in.req.SourceSlots, in.req.Strategy, &in.res, nil)
	} else {
		in.core.Reset(in.req.Schema, in.req.Sources, in.req.Strategy, &in.res, nil)
	}
	in.outstanding = 0
	in.finalized = false
	in.refs = 0
	in.begunGen = in.gen.Load()
	in.drive(sh)
}

// drive advances the core and submits the launches it selects, then
// applies the completions handed back during those launches: one at a
// time in launch order, each followed by its own advance — the order in
// which a single FIFO worker would have popped them — so Work, WastedWork
// and Launched are those of queued delivery. Called with in.mu held;
// releases it on every path.
func (in *inst) drive(sh *shard) {
	for {
		if ctx := in.req.Ctx; ctx != nil {
			if err := ctx.Err(); err != nil {
				in.abort(sh, err)
				return
			}
		}
		launches, status := in.core.Advance()
		if status != engine.StatusRunning {
			in.finalize(sh, status)
			return
		}
		for _, id := range launches {
			cost, _ := in.core.Book(id)
			in.outstanding++
			tag := uint64(id) << handBits
			in.hand.Store(tag | handLaunching)
			in.launch(id, cost, in.doneFn(id))
			if !in.hand.CompareAndSwap(tag|handLaunching, handIdle) {
				// Claimed: the word now holds this launch's outcome, and
				// no other completion can match its tag.
				st := in.hand.Swap(handIdle) & (1<<handBits - 1)
				in.handed = append(in.handed, handedTask{id: id, failed: st == handFailed})
			}
		}
		if in.next == len(in.handed) {
			in.handed, in.next = in.handed[:0], 0
			in.mu.Unlock()
			return
		}
		t := in.handed[in.next]
		in.next++
		in.outstanding--
		in.core.Complete(t.id, t.failed)
	}
}

// launch routes one booked task to the backend — through the shared query
// layer when configured. Called with in.mu held (safe: neither path blocks
// on completion delivery; see Backend docs). Admission control differs by
// path: the direct path acquires a token per launch, the query layer per
// unique backend query (deduplicated and cached launches hit no database,
// so they bypass admission).
func (in *inst) launch(id core.AttrID, cost int, done func(error)) {
	d := in.svc.disp
	if d == nil {
		svc := in.svc
		svc.tokens <- struct{}{} // global admission; blocks under overload
		switch {
		case svc.routed != nil:
			// Sharded backend: place by sharing identity so the same
			// logical query consistently lands on the same shard; volatile
			// (unroutable) launches spread by sequence instead.
			var h uint64
			var keyed bool
			in.keyBuf, keyed = in.core.AppendQueryArgs(id, in.keyBuf[:0])
			if keyed {
				h = hashIdentity(in.req.Schema, id, in.keyBuf)
			} else {
				h = splitmix64(svc.routeSeq.Add(1))
			}
			svc.routed.SubmitRouted(h, cost, done)
		case svc.fallible != nil:
			svc.fallible.SubmitErr(cost, done)
		default:
			svc.cfg.Backend.Submit(cost, in.okFn(id))
		}
		return
	}
	var key queryKey
	keyed := false
	if d.needsKey() {
		in.keyBuf, keyed = in.core.AppendQueryArgs(id, in.keyBuf[:0])
		if keyed {
			key = queryKey{schema: in.req.Schema, id: id, args: string(in.keyBuf)}
		}
	}
	d.Submit(key, keyed, cost, done)
}

// finishTask is the evaluation phase for one completed database task.
// failed completes the task as a database failure: the query's work was
// done (and stays in Work) but it delivers ⟂ (counted in Result.Failures)
// — the terminal outcome of a cluster query whose every retry failed.
func (in *inst) finishTask(sh *shard, id core.AttrID, failed bool) {
	in.mu.Lock()
	in.outstanding--
	if in.finalized {
		// Straggler of an early-terminated instance: its work was sealed
		// as waste at termination; just release the state when last out.
		in.deref()
		return
	}
	in.core.Complete(id, failed)
	in.drive(sh)
}

// cancelJob delivers a cancellation nudge from SubmitCancel: abort the
// instance unless it already finalized or the pooled state was recycled
// for a newer request (generation mismatch). A nudge that outruns its own
// begin job — possible with 2+ workers, since begin is popped first but a
// second worker can acquire in.mu before begin does — is requeued rather
// than dropped: the caller was promised a prompt abort even without a
// Request.Ctx to catch it at drive time.
//
// The checks run in that order because finalized is only meaningful once
// begin has reset it: before then it is left over from the pooled state's
// previous occupancy.
func (in *inst) cancelJob(sh *shard, gen uint64, err error) {
	in.mu.Lock()
	if in.gen.Load() != gen {
		in.mu.Unlock()
		return
	}
	if in.begunGen != gen {
		in.mu.Unlock()
		in.svc.queue.push(job{in: in, gen: gen, cancel: true, cancelErr: err})
		return
	}
	if in.finalized {
		in.mu.Unlock()
		return
	}
	in.abort(sh, err)
}

// abort terminates the instance early on cancellation: waste accounting is
// sealed (in-flight backend tasks complete as stragglers) and the instance
// finalizes now with the cancellation recorded on the result. Called with
// in.mu held; releases it.
func (in *inst) abort(sh *shard, cause error) {
	in.core.Abort()
	in.res.Err = fmt.Errorf("runtime: instance aborted: %w", cause)
	in.finalize(sh, engine.StatusDone)
}

// finalize records the terminal result, notifies the caller, and returns
// the instance to the pool once no completions or readers remain. Called
// with in.mu held; releases it.
func (in *inst) finalize(sh *shard, status engine.Status) {
	in.finalized = true
	// Handed-back completions not yet applied are stragglers like any
	// queued one: their work was sealed as waste at termination, and they
	// no longer hold the state alive.
	in.outstanding -= len(in.handed) - in.next
	in.handed, in.next = in.handed[:0], 0
	if status == engine.StatusStuck {
		in.res.Err = fmt.Errorf("runtime: instance stuck; no candidates, nothing in flight:\n%s", in.core.Snapshot())
	}
	latency := time.Since(in.start)
	in.res.Elapsed = float64(latency) / float64(time.Millisecond)
	if in.req.Shadow {
		sh.recordShadow(&in.res)
	} else {
		sh.record(&in.res, latency, in.req.Tenant)
	}
	// Keep the state alive for the callback plus every outstanding
	// completion; the last dropper recycles.
	in.refs = in.outstanding + 1
	cb := in.req.Done
	res := &in.res
	in.mu.Unlock()
	if cb != nil {
		cb(res)
	}
	in.mu.Lock()
	in.deref()
}

// deref drops one reference and retires the instance when none remain.
// Called with in.mu held; releases it.
func (in *inst) deref() {
	in.refs--
	retire := in.refs == 0
	in.mu.Unlock()
	if retire {
		in.req = Request{} // drop caller references before pooling
		in.svc.pool.Put(in)
		in.svc.active.Done()
	}
}

// doneFn returns the cached completion closure for the attribute.
func (in *inst) doneFn(id core.AttrID) func(error) {
	if int(id) >= len(in.doneFns) {
		grown := make([]func(error), in.req.Schema.NumAttrs())
		copy(grown, in.doneFns)
		in.doneFns = grown
	}
	if in.doneFns[id] == nil {
		id := id
		if in.svc.disp != nil {
			in.doneFns[id] = func(err error) { in.svc.taskDoneShared(in, id, err) }
		} else {
			in.doneFns[id] = func(err error) { in.svc.taskDone(in, id, err) }
		}
	}
	return in.doneFns[id]
}

// okFn returns the cached error-less adapter for the attribute, used with
// backends that cannot report outcomes.
func (in *inst) okFn(id core.AttrID) func() {
	if int(id) >= len(in.okFns) {
		grown := make([]func(), in.req.Schema.NumAttrs())
		copy(grown, in.okFns)
		in.okFns = grown
	}
	if in.okFns[id] == nil {
		fn := in.doneFns[id] // doneFn ran first: launch resolves it before routing
		in.okFns[id] = func() { fn(nil) }
	}
	return in.okFns[id]
}

// --- worker queue ---

// job is one unit of worker work: the first advance of a freshly
// submitted instance (begin), the completion of database task id (failed
// when the query terminally failed), or a cancellation nudge (cancel,
// targeting generation gen with cancelErr as the cause).
type job struct {
	in        *inst
	id        core.AttrID
	begin     bool
	failed    bool
	cancel    bool
	gen       uint64
	cancelErr error
}

// jobQueue is an unbounded MPMC FIFO. Unbounded is deliberate: admission
// control bounds database tasks, while instance starts are the open
// workload itself — under overload the queue depth is the load shed
// signal (see Service.QueueDepth).
type jobQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []job
	head   int
	closed bool
}

func (q *jobQueue) push(j job) {
	q.mu.Lock()
	// Compact when the dead prefix dominates, so a queue that never fully
	// drains (sustained overload backlog) doesn't grow without bound.
	if q.head > 32 && q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, j)
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *jobQueue) pop() (job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return job{}, false
	}
	j := q.items[q.head]
	q.items[q.head] = job{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return j, true
}

func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// QueueDepth returns the number of pending worker jobs (instance starts
// plus undelivered completions) — the backlog signal under overload.
func (s *Service) QueueDepth() int { return s.queue.depth() }
