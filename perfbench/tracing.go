package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"arlo/internal/dispatch"
	"arlo/internal/queue"
	"arlo/internal/sim"
	"arlo/internal/wire"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch. Parent is 0 when the caller cannot be known
// from outside the program (no request id crosses a wire hop today).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// samples is a concurrency-safe float64 sample list.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// tracer keeps the traced run's spans and per-call timings in memory.
// A nil *tracer is the untraced run: every wrap method returns its
// argument unchanged, so the program takes exactly the path the command
// binaries take.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	dispatchNS samples
	decisions  atomic.Int64
	peeked     atomic.Int64
	fallbacks  atomic.Int64
	demotions  atomic.Int64
	codecNS    samples
	allocMS    samples
	allocNS    atomic.Int64
	dispatchT  atomic.Int64 // total ns inside dispatcher calls
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// adopt appends u's spans to t, renumbered and on t's clock.
func (t *tracer) adopt(u *tracer) {
	off := int64(u.epoch.Sub(t.epoch))
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, s := range u.spans {
		s.ID, s.Start, s.End = t.newID(), s.Start+off, s.End+off
		t.add(s)
	}
}

// durationsMS returns, in ms, the durations of the spans with the given
// name that start in [from, to) (tracer-relative ns).
func (t *tracer) durationsMS(name string, from, to int64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Start >= from && s.Start < to {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanKey carries the enclosing span id through a request context.
type spanKey struct{}

func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// spanHeader carries the load generator's request span id to the server
// wrapper on the JSON path.
const spanHeader = "X-Perfbench-Span"

// wrapHandler times ServeHTTP for inference requests as "serve" spans.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/infer" && r.URL.Path != "/v1/generate" {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		id := t.newID()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.add(span{ID: id, Parent: parent, Name: "serve", Start: start, End: t.now()})
	})
}

// wrapListener times each wire request frame from the moment its bytes
// are read until its response frame is written, as spans named layer.
func (t *tracer) wrapListener(l net.Listener, layer string) net.Listener {
	if t == nil {
		return l
	}
	return &tracedListener{Listener: l, t: t, layer: layer}
}

type tracedListener struct {
	net.Listener
	t     *tracer
	layer string
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t, layer: l.layer, open: make(map[uint64]int64)}, nil
}

// tracedConn reassembles the length-prefixed frames flowing each way and
// decodes their ids with the wire package's public decoders.
type tracedConn struct {
	net.Conn
	t     *tracer
	layer string

	rmu  sync.Mutex
	rbuf []byte
	wmu  sync.Mutex
	wbuf []byte

	mu   sync.Mutex
	open map[uint64]int64
}

// frames consumes every complete frame at the head of buf, calling fn
// with each payload, and returns the unconsumed tail.
func frames(buf []byte, fn func(payload []byte)) []byte {
	for len(buf) >= 4 {
		n := int(binary.LittleEndian.Uint32(buf))
		if len(buf) < 4+n {
			break
		}
		fn(buf[4 : 4+n])
		buf = buf[4+n:]
	}
	return append(buf[:0:0], buf...)
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := c.t.now()
		c.rmu.Lock()
		c.rbuf = frames(append(c.rbuf, p[:n]...), func(payload []byte) {
			if len(payload) == 0 || payload[0] == wire.KindLoadRequest {
				return
			}
			t0 := time.Now()
			req, derr := wire.DecodeRequest(payload, nil)
			c.t.codecNS.add(float64(time.Since(t0)))
			if derr == nil {
				c.mu.Lock()
				c.open[req.ID] = now
				c.mu.Unlock()
			}
		})
		c.rmu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		now := c.t.now()
		c.wmu.Lock()
		c.wbuf = frames(append(c.wbuf, p[:n]...), func(payload []byte) {
			if len(payload) == 0 || payload[0] == wire.KindLoadResponse {
				return
			}
			t0 := time.Now()
			resp, derr := wire.DecodeResponse(payload)
			c.t.codecNS.add(float64(time.Since(t0)))
			if derr != nil {
				return
			}
			c.mu.Lock()
			start, ok := c.open[resp.ID]
			delete(c.open, resp.ID)
			c.mu.Unlock()
			if ok {
				c.t.add(span{ID: c.t.newID(), Name: c.layer, Start: start, End: now})
			}
		})
		c.wmu.Unlock()
	}
	return n, err
}

// wrapFactory wraps every dispatcher the factory builds so each dispatch
// call is timed and its decision counted. The wrapper implements exactly
// the optional interfaces the wrapped dispatcher implements, so the
// cluster takes the same path with and without tracing.
func (t *tracer) wrapFactory(f sim.DispatcherFactory) sim.DispatcherFactory {
	if t == nil {
		return f
	}
	return func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
		d, err := f(ml)
		if err != nil {
			return nil, err
		}
		base := &tracedDispatcher{inner: d, t: t}
		if g, ok := d.(dispatch.GroupDispatcher); ok {
			return &tracedGroup{tracedCtx{base, g}, g}, nil
		}
		if c, ok := d.(dispatch.ContextDispatcher); ok {
			return &tracedCtx{base, c}, nil
		}
		return base, nil
	}
}

type tracedDispatcher struct {
	inner dispatch.Dispatcher
	t     *tracer
}

func (d *tracedDispatcher) Name() string { return d.inner.Name() }

func (d *tracedDispatcher) Dispatch(length int) (*queue.Instance, error) {
	start := time.Now()
	in, err := d.inner.Dispatch(length)
	d.record(start, 0, nil)
	return in, err
}

// record notes one dispatch call; dec is nil when the call returns no
// decision.
func (d *tracedDispatcher) record(start time.Time, parent uint64, dec *dispatch.Decision) {
	end := time.Now()
	ns := int64(end.Sub(start))
	d.t.dispatchNS.add(float64(ns))
	d.t.dispatchT.Add(ns)
	if dec != nil {
		d.t.decisions.Add(1)
		d.t.peeked.Add(int64(dec.Peeked))
		if dec.Fallback {
			d.t.fallbacks.Add(1)
		}
		if dec.Level > dec.IdealLevel {
			d.t.demotions.Add(1)
		}
	}
	if parent != 0 {
		d.t.add(span{ID: d.t.newID(), Parent: parent, Name: "dispatch", Start: d.t.at(start), End: d.t.at(end)})
	}
}

type tracedCtx struct {
	*tracedDispatcher
	ctxInner dispatch.ContextDispatcher
}

func (d *tracedCtx) DispatchCtx(ctx context.Context, length int) (*queue.Instance, dispatch.Decision, error) {
	start := time.Now()
	in, dec, err := d.ctxInner.DispatchCtx(ctx, length)
	if err == nil {
		d.record(start, parentOf(ctx), &dec)
	} else {
		d.record(start, parentOf(ctx), nil)
	}
	return in, dec, err
}

type tracedGroup struct {
	tracedCtx
	groupInner dispatch.GroupDispatcher
}

func (d *tracedGroup) DispatchStale(length int) (*queue.Instance, dispatch.Decision, error) {
	start := time.Now()
	in, dec, err := d.groupInner.DispatchStale(length)
	if err == nil {
		d.record(start, 0, &dec)
	} else {
		d.record(start, 0, nil)
	}
	return in, dec, err
}

// timed runs fn as one span named name when tracing, and plainly when
// not.
func (t *tracer) timed(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := t.now()
	err := fn()
	t.add(span{ID: t.newID(), Name: name, Start: start, End: t.now()})
	return err
}

// wrapAllocator times every allocation solve the simulator asks for.
func (t *tracer) wrapAllocator(f sim.AllocatorFunc) sim.AllocatorFunc {
	if t == nil || f == nil {
		return f
	}
	return func(g int, q []float64) ([]int, error) {
		start := time.Now()
		n, err := f(g, q)
		end := time.Now()
		d := end.Sub(start)
		t.allocNS.Add(int64(d))
		t.allocMS.add(float64(d) / 1e6)
		t.add(span{ID: t.newID(), Name: "allocator", Start: t.at(start), End: t.at(end)})
		return n, err
	}
}

// The wrappers satisfy the interfaces they forward.
var (
	_ dispatch.Dispatcher        = (*tracedDispatcher)(nil)
	_ dispatch.ContextDispatcher = (*tracedCtx)(nil)
	_ dispatch.GroupDispatcher   = (*tracedGroup)(nil)
)
