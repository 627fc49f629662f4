package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/fault"
	"repro/internal/value"
)

// binTransport speaks the dfbin binary wire: a small pool of persistent
// TCP connections carrying length-prefixed frames (see internal/api's
// binary codec), each *multiplexed* across every in-flight request. A
// request appends its frame to the connection's write queue and waits
// for the response bearing its request id; a per-connection writer
// flushes the queue with one writev-sized syscall for however many
// frames accumulated, and a per-connection reader dispatches responses
// by id. Under concurrency this amortizes the four syscalls of a naive
// request/response round trip over many requests — the reason the
// protocol echoes request ids at all.
//
// Every connection keeps its own bind cache — a bind is the
// prepared-statement handshake that trades the schema name for a dense
// attribute-id table, after which eval frames carry (attrID, value)
// pairs instead of a name-keyed JSON object. Stale binds (the schema
// was re-registered) are transparently re-bound and the request retried
// once. The transport additionally remembers every (schema, strategy)
// pair it has ever bound, and a freshly dialed connection — including a
// reconnect after the server restarted — redoes the Hello handshake and
// proactively re-binds them all, so a retried request never replays an
// eval against a connection that lost its server-side bind table.
type binTransport struct {
	addr string
	opts Options

	rr    atomic.Uint64 // round-robin slot cursor
	slots []*connSlot

	kbmu       sync.Mutex
	knownBinds map[bindKey]struct{}

	closed atomic.Bool
}

// muxConns is the pool size: multiplexing needs few sockets — the
// limiting resource is frames per syscall, not connections — so the
// pool stays well under MaxConns unless the caller asks for less.
const muxConns = 8

// connSlot holds one (lazily dialed) multiplexed connection; the slot
// mutex serializes dials for the slot, never requests.
type connSlot struct {
	mu sync.Mutex
	c  *bconn
}

func newBinTransport(addr string, o Options) *binTransport {
	n := min(o.MaxConns, muxConns)
	t := &binTransport{addr: addr, opts: o, slots: make([]*connSlot, n),
		knownBinds: make(map[bindKey]struct{})}
	for i := range t.slots {
		t.slots[i] = &connSlot{}
	}
	return t
}

// noteBind records a successfully bound (schema, strategy) pair so
// future dials can restore it; forgetBind drops a pair the server no
// longer knows (the schema was deleted, not merely re-versioned).
func (t *binTransport) noteBind(key bindKey) {
	t.kbmu.Lock()
	t.knownBinds[key] = struct{}{}
	t.kbmu.Unlock()
}

func (t *binTransport) forgetBind(key bindKey) {
	t.kbmu.Lock()
	delete(t.knownBinds, key)
	t.kbmu.Unlock()
}

func (t *binTransport) bindsToRestore() []bindKey {
	t.kbmu.Lock()
	keys := make([]bindKey, 0, len(t.knownBinds))
	for key := range t.knownBinds {
		keys = append(keys, key)
	}
	t.kbmu.Unlock()
	return keys
}

// connError marks transport-level failures — the socket died or the
// server sent bytes that don't parse — after which the connection is
// unusable and has been discarded. A request that hits one is retried
// once on another (freshly dialed if needed) connection, since a
// long-lived connection may have been closed under us (server drain or
// restart) with the request never seen — the same replay rationale as
// net/http's retry of requests on dead keep-alive connections.
type connError struct{ err error }

func (e *connError) Error() string { return "client: binary connection failed: " + e.err.Error() }
func (e *connError) Unwrap() error { return e.err }

// conn returns a live multiplexed connection, dialing into this
// request's round-robin slot when none is usable.
func (t *binTransport) conn(ctx context.Context) (*bconn, error) {
	if t.closed.Load() {
		return nil, errors.New("client: transport closed")
	}
	n := len(t.slots)
	i := int(t.rr.Add(1)-1) % n
	for k := 0; k < n; k++ {
		s := t.slots[(i+k)%n]
		s.mu.Lock()
		c := s.c
		s.mu.Unlock()
		if c != nil && c.usable() {
			return c, nil
		}
	}
	s := t.slots[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c != nil && s.c.usable() {
		return s.c, nil
	}
	c, err := t.dial(ctx)
	if err != nil {
		return nil, err
	}
	if t.closed.Load() {
		c.fail(errors.New("client: transport closed"))
		return nil, errors.New("client: transport closed")
	}
	s.c = c
	return c, nil
}

// do runs one request attempt, retrying once on a different connection
// when the first one turns out to be dead.
func (t *binTransport) do(ctx context.Context, fn func(c *bconn) error) error {
	c, err := t.conn(ctx)
	if err != nil {
		return err
	}
	err = fn(c)
	var ce *connError
	if errors.As(err, &ce) {
		c2, derr := t.conn(ctx)
		if derr != nil {
			return err
		}
		return fn(c2)
	}
	return err
}

func (t *binTransport) Close() error {
	t.closed.Store(true)
	for _, s := range t.slots {
		s.mu.Lock()
		c := s.c
		s.c = nil
		s.mu.Unlock()
		if c != nil {
			c.fail(errors.New("client: transport closed"))
		}
	}
	return nil
}

// muxResp is one dispatched response: the frame type and the payload
// (copied into the request's own buffer) positioned after the echoed
// request id — or the connection's terminal error.
type muxResp struct {
	typ     byte
	payload []byte
	err     error
}

// bconn is one multiplexed dfbin connection after its Hello/HelloAck
// handshake. Requests from any number of goroutines append frames to wq
// and park on their pending channel; the writer goroutine flushes wq in
// coalesced writes, the reader goroutine dispatches responses by
// request id.
type bconn struct {
	t  *binTransport
	nc net.Conn
	fr *api.FrameReader

	wmu  sync.Mutex
	wq   []byte
	wake chan struct{}

	pmu      sync.Mutex
	pending  map[uint64]*pendingReq
	reqID    uint64
	err      error // terminal; set once by fail
	draining bool  // server pushed a Drain frame

	bmu      sync.Mutex
	nextBind uint64
	binds    map[bindKey]*clientBind
	binding  map[bindKey]*bindFuture
}

type bindKey struct{ schema, strategy string }

// bindFuture single-flights concurrent binds of the same key on one
// connection.
type bindFuture struct {
	done chan struct{}
	b    *clientBind
	err  error
}

// clientBind is a cached BindAck: the schema's attribute-id table. The
// position in names IS the AttrID; sourceID maps a source attribute's
// name to its id (non-source names are absent, and are skipped during
// encoding exactly like the server's map path ignores them).
type clientBind struct {
	id       uint64
	fp       uint64 // schema fingerprint, for observability
	names    []string
	sourceID map[string]uint64
}

func (t *binTransport) dial(ctx context.Context) (*bconn, error) {
	d := net.Dialer{Timeout: t.opts.Timeout}
	nc, err := d.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", t.addr, err)
	}
	// Interpose the conn failpoints only while armed: wrapping hides
	// *net.TCPConn from vectored-write fast paths, so the disarmed hot
	// path keeps the raw conn.
	if fault.Active() {
		nc = fault.WrapConn(nc, fault.SiteClientConnRead, fault.SiteClientConnWrite)
	}
	c := &bconn{
		t:       t,
		nc:      nc,
		fr:      api.NewFrameReader(bufio.NewReaderSize(nc, 64<<10), 0),
		wake:    make(chan struct{}, 1),
		pending: make(map[uint64]*pendingReq),
		binds:   make(map[bindKey]*clientBind),
		binding: make(map[bindKey]*bindFuture),
	}
	// The handshake is synchronous and deadline-bounded; afterwards the
	// connection is persistent, requests carry their own timeouts, and
	// the deadline comes off so multiplexed requests never trip it.
	nc.SetDeadline(time.Now().Add(t.opts.Timeout))
	hello := api.AppendHelloFrame(nil, t.opts.Tenant)
	if _, err := nc.Write(hello); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	typ, p, err := c.fr.Next()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: hello ack: %w", err)
	}
	if typ != api.FrameHelloAck {
		nc.Close()
		return nil, fmt.Errorf("client: expected HelloAck, got frame %#x (is %s a dfbin endpoint?)", typ, t.addr)
	}
	draining, _, err := api.ParseHelloAck(p)
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.draining = draining
	nc.SetDeadline(time.Time{})
	go c.reader()
	go c.writer()
	// A new connection — often a reconnect after the server restarted —
	// starts with an empty server-side bind table. Restore every bind the
	// transport has ever held before any request runs on it, so a retried
	// eval never replays against a connection missing its bind. A bind the
	// server no longer recognizes is dropped from the restore set; the
	// failure itself is not fatal to the connection.
	for _, key := range t.bindsToRestore() {
		if _, err := c.bind(ctx, key.schema, key.strategy, t.opts.Timeout); err != nil {
			if errors.As(err, new(*connError)) {
				c.fail(err)
				return nil, err
			}
			t.forgetBind(key)
		}
	}
	return c, nil
}

func (c *bconn) usable() bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.err == nil
}

// fail marks the connection dead, closes the socket, and delivers the
// error to every parked request. Idempotent.
func (c *bconn) fail(err error) {
	c.pmu.Lock()
	if c.err == nil {
		c.err = err
	}
	pend := c.pending
	c.pending = make(map[uint64]*pendingReq)
	c.pmu.Unlock()
	c.nc.Close()
	select {
	case c.wake <- struct{}{}:
	default:
	}
	for _, pr := range pend {
		pr.ch <- muxResp{err: &connError{err}}
	}
}

// reader dispatches every inbound frame to the request that owns it.
func (c *bconn) reader() {
	for {
		typ, p, err := c.fr.Next()
		if err != nil {
			c.fail(err)
			return
		}
		if typ == api.FrameDrain {
			c.pmu.Lock()
			c.draining = true
			c.pmu.Unlock()
			continue
		}
		cur := api.NewCursor(p)
		rid := cur.Uvarint()
		if cur.Err() != nil {
			c.fail(fmt.Errorf("frame %#x carries no request id", typ))
			return
		}
		c.pmu.Lock()
		pr := c.pending[rid]
		delete(c.pending, rid)
		c.pmu.Unlock()
		if pr == nil {
			continue // request abandoned (timeout/cancel); drop the response
		}
		// The payload views the reader's buffer, which the next Next()
		// reuses — copy into the request's own (pooled) buffer before
		// handing it across goroutines.
		pr.pbuf = append(pr.pbuf[:0], cur.Rest()...)
		pr.ch <- muxResp{typ: typ, payload: pr.pbuf}
	}
}

// writer flushes the write queue: one Write for however many request
// frames accumulated since the last flush — the syscall amortization
// that multiplexing buys.
func (c *bconn) writer() {
	var spare []byte
	for range c.wake {
		for {
			c.wmu.Lock()
			buf := c.wq
			c.wq = spare[:0]
			c.wmu.Unlock()
			// buf is no longer the queue, so it is the next spare — even
			// when empty. Keeping the old spare here would leave it
			// aliasing the queue just installed, and the next flush would
			// write that array while producers append into it.
			spare = buf
			if len(buf) == 0 {
				break
			}
			if _, err := c.nc.Write(buf); err != nil {
				c.fail(err)
				return
			}
		}
		if !c.usable() {
			return
		}
	}
}

// pendingReq is one registered request: its id, parked-response
// channel, timeout timer, and frame/payload buffers. The whole bundle
// recycles through reqPool so the steady-state request allocates only
// its decoded result.
type pendingReq struct {
	rid  uint64
	ch   chan muxResp
	tm   *time.Timer
	fbuf []byte // request frame build buffer
	pbuf []byte // response payload copy (reader fills it)
}

var reqPool = sync.Pool{New: func() any {
	return &pendingReq{ch: make(chan muxResp, 1)}
}}

// putReq recycles a request bundle. Only an owner may call it: the
// waiter after it received from pr.ch and finished decoding pr.pbuf, or
// after an abandon() that returned true (proving no send can follow).
func putReq(pr *pendingReq) { reqPool.Put(pr) }

// begin registers a request and starts its frame: type byte plus the
// request id, in the bundle's recycled build buffer.
func (c *bconn) begin(typ byte) (w []byte, pr *pendingReq, err error) {
	pr = reqPool.Get().(*pendingReq)
	c.pmu.Lock()
	if c.err != nil {
		err = c.err
		c.pmu.Unlock()
		putReq(pr)
		return nil, nil, &connError{err}
	}
	c.reqID++
	pr.rid = c.reqID
	c.pending[pr.rid] = pr
	c.pmu.Unlock()
	w = api.BeginFrame(pr.fbuf[:0], typ)
	return api.AppendUvarint(w, pr.rid), pr, nil
}

// abandon deregisters a request that stopped waiting. true means the
// caller won the race and no response will ever be delivered (the
// bundle may recycle); false means the reader or fail() already owns
// the bundle — it must leak to the GC, since a late send into its
// channel may still be in flight.
func (c *bconn) abandon(rid uint64) bool {
	c.pmu.Lock()
	_, ok := c.pending[rid]
	delete(c.pending, rid)
	c.pmu.Unlock()
	return ok
}

// cancel abandons a request whose frame was never queued (encode
// failed), recycling the bundle when safe.
func (c *bconn) cancel(pr *pendingReq) {
	if c.abandon(pr.rid) {
		putReq(pr)
	}
}

// roundTrip finishes the frame built in w, queues it for the writer,
// and parks until the response arrives, the context is done, or the
// request times out. The returned cursor is positioned after the echoed
// request id and views pr.pbuf: when err is nil the caller must call
// putReq(pr) after fully decoding it (decoded strings/values copy out
// of the buffer). When err is non-nil the bundle is already handled.
func (c *bconn) roundTrip(ctx context.Context, w []byte, pr *pendingReq, timeout time.Duration) (byte, api.Cursor, error) {
	w = api.FinishFrame(w, 0)
	c.wmu.Lock()
	c.wq = append(c.wq, w...)
	c.wmu.Unlock()
	pr.fbuf = w[:0]
	select {
	case c.wake <- struct{}{}:
	default:
	}

	// Reset without drain is sound from go 1.23 on: stopped/expired
	// timers no longer leave a stale tick in the channel.
	if pr.tm == nil {
		pr.tm = time.NewTimer(timeout)
	} else {
		pr.tm.Reset(timeout)
	}
	select {
	case r := <-pr.ch:
		pr.tm.Stop()
		if r.err != nil {
			putReq(pr)
			return 0, api.Cursor{}, r.err
		}
		return r.typ, api.NewCursor(r.payload), nil
	case <-ctx.Done():
		pr.tm.Stop()
		if c.abandon(pr.rid) {
			putReq(pr)
		}
		return 0, api.Cursor{}, ctx.Err()
	case <-pr.tm.C:
		if c.abandon(pr.rid) {
			putReq(pr)
		}
		return 0, api.Cursor{}, fmt.Errorf("client: request timed out after %v", timeout)
	}
}

// binErrToErr maps a server Error frame onto the client's error
// vocabulary, mirroring the HTTP status mapping: CodeShed ↔ 429 becomes
// a retryable shedError, CodeDraining ↔ 503 wraps ErrDraining.
func binErrToErr(e api.BinError) error {
	switch e.Code {
	case api.CodeShed:
		return &shedError{retryAfter: time.Duration(e.RetryAfterMs) * time.Millisecond, msg: e.Msg}
	case api.CodeDraining:
		return fmt.Errorf("%w: %s", ErrDraining, e.Msg)
	default:
		return fmt.Errorf("client: server error (code %d): %s", e.Code, e.Msg)
	}
}

// bind returns the connection's cached bind for (schema, strategy),
// performing the Bind/BindAck handshake on a miss; concurrent misses of
// one key share a single handshake.
func (c *bconn) bind(ctx context.Context, schema, strategy string, timeout time.Duration) (*clientBind, error) {
	key := bindKey{schema, strategy}
	c.bmu.Lock()
	if b := c.binds[key]; b != nil {
		c.bmu.Unlock()
		return b, nil
	}
	if f := c.binding[key]; f != nil {
		c.bmu.Unlock()
		select {
		case <-f.done:
			return f.b, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &bindFuture{done: make(chan struct{})}
	c.binding[key] = f
	c.nextBind++
	id := c.nextBind
	c.bmu.Unlock()

	b, err := c.doBind(ctx, id, schema, strategy, timeout)
	c.bmu.Lock()
	delete(c.binding, key)
	if err == nil {
		c.binds[key] = b
	}
	c.bmu.Unlock()
	if err == nil {
		c.t.noteBind(key)
	}
	f.b, f.err = b, err
	close(f.done)
	return b, err
}

func (c *bconn) doBind(ctx context.Context, id uint64, schema, strategy string, timeout time.Duration) (*clientBind, error) {
	w, pr, err := c.begin(api.FrameBind)
	if err != nil {
		return nil, err
	}
	w = api.AppendUvarint(w, id)
	w = api.AppendString(w, schema)
	w = api.AppendString(w, strategy)
	typ, cur, err := c.roundTrip(ctx, w, pr, timeout)
	if err != nil {
		return nil, err
	}
	defer putReq(pr) // decoded strings copy out of the payload buffer
	switch typ {
	case api.FrameError:
		e, perr := api.ParseError(&cur)
		if perr != nil {
			return nil, &connError{perr}
		}
		return nil, binErrToErr(e)
	case api.FrameBindAck:
	default:
		return nil, &connError{fmt.Errorf("expected BindAck, got frame %#x", typ)}
	}
	if echo := cur.Uvarint(); echo != id && cur.Err() == nil {
		return nil, &connError{fmt.Errorf("BindAck for bind %d, want %d", echo, id)}
	}
	b := &clientBind{id: id, fp: cur.U64()}
	n := cur.Uvarint()
	if cur.Err() != nil || n > uint64(len(cur.Rest())) {
		return nil, &connError{fmt.Errorf("corrupt BindAck: %v", cur.Err())}
	}
	b.names = make([]string, n)
	b.sourceID = make(map[string]uint64, n)
	for i := range b.names {
		flags := cur.Byte()
		b.names[i] = cur.String()
		if flags&api.BindFlagSource != 0 {
			b.sourceID[b.names[i]] = uint64(i)
		}
	}
	if err := cur.Done(); err != nil {
		return nil, &connError{err}
	}
	return b, nil
}

// rebind drops a stale cached bind and re-binds: the server
// re-registered the schema since this connection bound it.
func (c *bconn) rebind(ctx context.Context, schema, strategy string, timeout time.Duration) (*clientBind, error) {
	c.bmu.Lock()
	delete(c.binds, bindKey{schema, strategy})
	c.bmu.Unlock()
	return c.bind(ctx, schema, strategy, timeout)
}

// decodeResultBody decodes one wire result-body into an EvalResult,
// resolving target attribute ids through the bind's name table.
func decodeResultBody(cur *api.Cursor, b *clientBind) (api.EvalResult, error) {
	var out api.EvalResult
	out.ElapsedMs = float64(cur.Uvarint()) / 1000 // wire carries µs
	out.Work = int(cur.Uvarint())
	out.WastedWork = int(cur.Uvarint())
	out.Launched = int(cur.Uvarint())
	out.SynthesisRuns = int(cur.Uvarint())
	out.Failures = int(cur.Uvarint())
	out.Error = cur.String()
	n := cur.Uvarint()
	if cur.Err() != nil || n > uint64(len(cur.Rest())) {
		return out, fmt.Errorf("corrupt result body: %v", cur.Err())
	}
	out.Values = make(map[string]any, n)
	for i := uint64(0); i < n; i++ {
		id := cur.Uvarint()
		v := cur.Value()
		if cur.Err() != nil {
			return out, cur.Err()
		}
		if id >= uint64(len(b.names)) {
			return out, fmt.Errorf("result target id %d outside bind table of %d", id, len(b.names))
		}
		out.Values[b.names[id]] = api.ToJSON(v)
	}
	return out, nil
}

// evalRound is the shared single-instance round trip: encode appends
// the (attrID, value) pairs for the bound schema; the stale-bind retry
// and result decode are common to both the JSON-map and typed paths.
func (t *binTransport) evalRound(ctx context.Context, schema, strategy string,
	encode func(w []byte, b *clientBind) ([]byte, error)) (api.EvalResult, error) {
	var out api.EvalResult
	err := t.do(ctx, func(c *bconn) error {
		b, err := c.bind(ctx, schema, strategy, t.opts.Timeout)
		if err != nil {
			return err
		}
		for attempt := 0; ; attempt++ {
			w, pr, err := c.begin(api.FrameEval)
			if err != nil {
				return err
			}
			w = api.AppendUvarint(w, b.id)
			if w, err = encode(w, b); err != nil {
				c.cancel(pr)
				return err
			}
			typ, cur, err := c.roundTrip(ctx, w, pr, t.opts.Timeout)
			if err != nil {
				return err
			}
			switch typ {
			case api.FrameResult:
				out, err = decodeResultBody(&cur, b)
				putReq(pr)
				if err != nil {
					return &connError{err}
				}
				return nil
			case api.FrameError:
				e, perr := api.ParseError(&cur)
				putReq(pr)
				if perr != nil {
					return &connError{perr}
				}
				// CodeStale: the schema was re-versioned under this bind.
				// CodeNotFound: the server lost the bind outright (restart
				// recovered its registry but not per-connection state). Both
				// heal the same way: re-bind once and replay.
				if (e.Code == api.CodeStale || e.Code == api.CodeNotFound) && attempt == 0 {
					if b, err = c.rebind(ctx, schema, strategy, t.opts.Timeout); err != nil {
						return err
					}
					continue
				}
				return binErrToErr(e)
			default:
				putReq(pr)
				return &connError{fmt.Errorf("expected Result, got frame %#x", typ)}
			}
		}
	})
	return out, err
}

func (t *binTransport) Eval(ctx context.Context, req api.EvalRequest) (api.EvalResult, error) {
	return t.evalRound(ctx, req.Schema, req.Strategy, func(w []byte, b *clientBind) ([]byte, error) {
		npairs := 0
		for name := range req.Sources {
			if _, ok := b.sourceID[name]; ok {
				npairs++
			}
		}
		w = api.AppendUvarint(w, uint64(npairs))
		for name, x := range req.Sources {
			id, ok := b.sourceID[name]
			if !ok {
				continue // non-source names are ignored, like the map path
			}
			v, err := api.FromJSON(x)
			if err != nil {
				return nil, fmt.Errorf("client: source %q: %w", name, err)
			}
			w = api.AppendUvarint(w, id)
			w = api.AppendValue(w, v)
		}
		return w, nil
	})
}

// EvalTyped is the binary wire's typed fast path (see typedEvaler):
// sources already are value.Value, so they serialize straight into the
// frame — no any-map detour, no FromJSON per value.
func (t *binTransport) EvalTyped(ctx context.Context, schema, strategy string, sources map[string]value.Value) (api.EvalResult, error) {
	return t.evalRound(ctx, schema, strategy, func(w []byte, b *clientBind) ([]byte, error) {
		npairs := 0
		for name := range sources {
			if _, ok := b.sourceID[name]; ok {
				npairs++
			}
		}
		w = api.AppendUvarint(w, uint64(npairs))
		for name, v := range sources {
			id, ok := b.sourceID[name]
			if !ok {
				continue
			}
			w = api.AppendUvarint(w, id)
			w = api.AppendValue(w, v)
		}
		return w, nil
	})
}

func (t *binTransport) EvalBatch(ctx context.Context, req api.BatchRequest) ([]api.EvalResult, error) {
	var out []api.EvalResult
	err := t.do(ctx, func(c *bconn) error {
		b, err := c.bind(ctx, req.Schema, req.Strategy, t.opts.Timeout)
		if err != nil {
			return err
		}
		for attempt := 0; ; attempt++ {
			// Columns are the union of source names across the batch, in
			// first-seen order; instances missing a column carry ⟂ there,
			// matching the map path's missing-key semantics.
			var cols []uint64
			seen := make(map[string]bool)
			var names []string
			for _, src := range req.Sources {
				for name := range src {
					if seen[name] {
						continue
					}
					seen[name] = true
					if id, ok := b.sourceID[name]; ok {
						cols = append(cols, id)
						names = append(names, name)
					}
				}
			}
			w, pr, err := c.begin(api.FrameEvalBatch)
			if err != nil {
				return err
			}
			w = api.AppendUvarint(w, b.id)
			w = api.AppendUvarint(w, uint64(len(req.Sources)))
			w = api.AppendUvarint(w, uint64(len(cols)))
			for _, id := range cols {
				w = api.AppendUvarint(w, id)
			}
			for _, name := range names {
				for _, src := range req.Sources {
					x, ok := src[name]
					if !ok {
						w = append(w, 0) // tagNull: ⟂
						continue
					}
					v, err := api.FromJSON(x)
					if err != nil {
						c.cancel(pr)
						return fmt.Errorf("client: source %q: %w", name, err)
					}
					w = api.AppendValue(w, v)
				}
			}
			typ, cur, err := c.roundTrip(ctx, w, pr, t.opts.Timeout)
			if err != nil {
				return err
			}
			switch typ {
			case api.FrameBatchResult:
				n := cur.Uvarint()
				if cur.Err() != nil || n != uint64(len(req.Sources)) {
					putReq(pr)
					return &connError{fmt.Errorf("batch result carries %d instances for %d sent", n, len(req.Sources))}
				}
				out = make([]api.EvalResult, n)
				for i := range out {
					if out[i], err = decodeResultBody(&cur, b); err != nil {
						putReq(pr)
						return &connError{err}
					}
				}
				err = cur.Done()
				putReq(pr)
				if err != nil {
					return &connError{err}
				}
				return nil
			case api.FrameError:
				e, perr := api.ParseError(&cur)
				putReq(pr)
				if perr != nil {
					return &connError{perr}
				}
				if (e.Code == api.CodeStale || e.Code == api.CodeNotFound) && attempt == 0 {
					if b, err = c.rebind(ctx, req.Schema, req.Strategy, t.opts.Timeout); err != nil {
						return err
					}
					continue
				}
				return binErrToErr(e)
			default:
				putReq(pr)
				return &connError{fmt.Errorf("expected BatchResult, got frame %#x", typ)}
			}
		}
	})
	return out, err
}

func (t *binTransport) RegisterSchemaText(ctx context.Context, text string) (api.SchemaResponse, error) {
	var out api.SchemaResponse
	err := t.do(ctx, func(c *bconn) error {
		w, pr, err := c.begin(api.FrameRegister)
		if err != nil {
			return err
		}
		w = api.AppendString(w, text)
		typ, cur, err := c.roundTrip(ctx, w, pr, t.opts.Timeout)
		if err != nil {
			return err
		}
		defer putReq(pr)
		switch typ {
		case api.FrameRegisterAck:
		case api.FrameError:
			e, perr := api.ParseError(&cur)
			if perr != nil {
				return &connError{perr}
			}
			return binErrToErr(e)
		default:
			return &connError{fmt.Errorf("expected RegisterAck, got frame %#x", typ)}
		}
		out.Name = cur.String()
		out.Attrs = int(cur.Uvarint())
		n := cur.Uvarint()
		if cur.Err() != nil || n > uint64(len(cur.Rest())) {
			return &connError{fmt.Errorf("corrupt RegisterAck: %v", cur.Err())}
		}
		out.Targets = make([]string, n)
		for i := range out.Targets {
			out.Targets[i] = cur.String()
		}
		out.Version = cur.Uvarint()
		out.Fingerprint = fmt.Sprintf("%016x", cur.U64())
		if err := cur.Done(); err != nil {
			return &connError{err}
		}
		return nil
	})
	return out, err
}

func (t *binTransport) Stats(ctx context.Context) (api.StatsResponse, error) {
	var out api.StatsResponse
	err := t.do(ctx, func(c *bconn) error {
		w, pr, err := c.begin(api.FrameStats)
		if err != nil {
			return err
		}
		typ, cur, err := c.roundTrip(ctx, w, pr, t.opts.Timeout)
		if err != nil {
			return err
		}
		defer putReq(pr)
		switch typ {
		case api.FrameStatsAck:
		case api.FrameError:
			e, perr := api.ParseError(&cur)
			if perr != nil {
				return &connError{perr}
			}
			return binErrToErr(e)
		default:
			return &connError{fmt.Errorf("expected StatsAck, got frame %#x", typ)}
		}
		raw := cur.Bytes()
		if err := cur.Done(); err != nil {
			return &connError{err}
		}
		return json.Unmarshal(raw, &out)
	})
	return out, err
}

func (t *binTransport) Forward(ctx context.Context, q ForwardQuery) error {
	return t.do(ctx, func(c *bconn) error {
		w, pr, err := c.begin(api.FrameForward)
		if err != nil {
			return err
		}
		w = api.AppendString(w, q.Schema)
		w = api.AppendU64(w, q.Fingerprint)
		w = api.AppendUvarint(w, q.Attr)
		w = api.AppendUvarint(w, uint64(max(q.Cost, 0)))
		w = api.AppendUvarint(w, uint64(len(q.Args)))
		w = append(w, q.Args...)
		typ, cur, err := c.roundTrip(ctx, w, pr, t.opts.Timeout)
		if err != nil {
			return err
		}
		defer putReq(pr)
		switch typ {
		case api.FrameForwardAck:
		case api.FrameError:
			e, perr := api.ParseError(&cur)
			if perr != nil {
				return &connError{perr}
			}
			return binErrToErr(e)
		default:
			return &connError{fmt.Errorf("expected ForwardAck, got frame %#x", typ)}
		}
		msg := cur.String()
		if err := cur.Done(); err != nil {
			return &connError{err}
		}
		if msg != "" {
			return &QueryFailedError{Msg: msg}
		}
		return nil
	})
}

func (t *binTransport) Health(ctx context.Context) error {
	return t.do(ctx, func(c *bconn) error {
		w, pr, err := c.begin(api.FramePing)
		if err != nil {
			return err
		}
		typ, cur, err := c.roundTrip(ctx, w, pr, t.opts.Timeout)
		if err != nil {
			return err
		}
		defer putReq(pr)
		if typ != api.FramePong {
			return &connError{fmt.Errorf("expected Pong, got frame %#x", typ)}
		}
		if cur.Byte() != 0 { // draining, mirroring /healthz's 503
			return fmt.Errorf("%w: health probe", ErrDraining)
		}
		return nil
	})
}
