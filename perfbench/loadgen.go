package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"arlo/internal/serve"
)

// reply is what the benchmark keeps from one successful response.
type reply struct {
	seqLen    int
	runtime   int
	batchSize int
	outTokens int
	queueMS   float64
	execMS    float64
	ttftMS    float64
	tpotMS    float64
}

// client sends one request over a socket and waits for its reply. span
// is the load generator's span id for the request (0 when untraced).
type client interface {
	send(ctx context.Context, in *input, span uint64) (reply, error)
	close()
}

// wireClient spreads requests over a fixed set of pipelined binary
// protocol connections.
type wireClient struct {
	conns []*serve.WireClient
	next  atomic.Uint64
	gen   bool
}

func dialWire(addr string, conns int, gen bool) (*wireClient, error) {
	c := &wireClient{gen: gen}
	for i := 0; i < conns; i++ {
		wc, err := serve.DialWire(addr)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		c.conns = append(c.conns, wc)
	}
	return c, nil
}

func (c *wireClient) send(ctx context.Context, in *input, _ uint64) (reply, error) {
	wc := c.conns[c.next.Add(1)%uint64(len(c.conns))]
	if c.gen {
		r, err := wc.GenerateCtx(ctx, in.text, in.maxNew)
		if err != nil {
			return reply{}, err
		}
		return reply{seqLen: r.SequenceLength, runtime: r.Runtime, batchSize: r.BatchSize,
			outTokens: r.OutputTokens, queueMS: r.QueueMS,
			execMS: r.ExecMS, ttftMS: r.TTFTMS, tpotMS: r.TPOTMS}, nil
	}
	r, err := wc.InferCtx(ctx, in.text)
	if err != nil {
		return reply{}, err
	}
	return reply{seqLen: r.SequenceLength, runtime: r.Runtime, batchSize: r.BatchSize,
		queueMS: r.QueueMS, execMS: r.ExecMS}, nil
}

func (c *wireClient) close() {
	for _, wc := range c.conns {
		_ = wc.Close()
	}
}

// jsonClient posts /v1/infer over HTTP/1.1 keep-alive connections,
// capped at a fixed connection count.
type jsonClient struct {
	hc  *http.Client
	tr  *http.Transport
	url string
}

func newJSONClient(addr string, conns int) *jsonClient {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}
	return &jsonClient{hc: &http.Client{Transport: tr}, tr: tr, url: "http://" + addr + "/v1/infer"}
}

type jsonBody struct {
	Text   string `json:"text"`
	Tenant string `json:"tenant,omitempty"`
}

func (c *jsonClient) send(ctx context.Context, in *input, span uint64) (reply, error) {
	body, err := json.Marshal(jsonBody{Text: in.text, Tenant: in.tenant})
	if err != nil {
		return reply{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(span, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		var env serve.ErrorEnvelope
		if json.Unmarshal(data, &env) != nil || env.Error.Code == "" {
			return reply{}, fmt.Errorf("http %d without an error envelope", resp.StatusCode)
		}
		return reply{}, &serve.APIError{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message}
	}
	var r serve.InferResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return reply{}, fmt.Errorf("decode reply: %w", err)
	}
	return reply{seqLen: r.SequenceLength, runtime: r.Runtime, batchSize: r.BatchSize,
		queueMS: r.QueueMS, execMS: r.ExecMS}, nil
}

func (c *jsonClient) close() { c.tr.CloseIdleConnections() }

// typedCodes are the error codes a server may legitimately answer with;
// any other failure is untyped and fails the run.
var typedCodes = map[string]bool{
	serve.CodeCongested:        true,
	serve.CodeUnserviceable:    true,
	serve.CodeNoInstances:      true,
	serve.CodeUnavailable:      true,
	serve.CodeDeadlineExceeded: true,
	serve.CodeRateLimited:      true,
	serve.CodeTooLong:          true,
}

// outcome is one request's fate as the load generator saw it.
type outcome struct {
	in    *input
	due   time.Time // when it was due (open loop) or sent (closed loop)
	end   time.Time
	rep   reply
	err   error
	typed bool // err is a typed server error
	lost  bool // no answer before the client deadline
}

func (o *outcome) ok() bool { return o.err == nil }

func (o *outcome) latency() time.Duration { return o.end.Sub(o.due) }

func classify(o *outcome, err error) {
	o.err = err
	if err == nil {
		return
	}
	var apiErr *serve.APIError
	if errors.As(err, &apiErr) && typedCodes[apiErr.Code] {
		o.typed = true
		return
	}
	o.lost = errors.Is(err, context.DeadlineExceeded)
}

// requestTimeout bounds every request; a request still unanswered then
// counts as lost.
const requestTimeout = 10 * time.Second

// openResult is one open-loop phase.
type openResult struct {
	outs  []outcome
	late  []float64 // generator lateness per request, ms
	start time.Time
	wall  time.Duration
	cpu   time.Duration
}

// newOpenResult allocates the result arrays of an open loop of n
// requests, so they can exist before heap sampling starts.
func newOpenResult(n int) openResult {
	return openResult{outs: make([]outcome, n), late: make([]float64, n)}
}

// openLoop sends every input at its due offset from a start instant,
// whatever the replies do, and waits for every reply. Each request is
// timed from its due time, so generator stalls count against latency.
// res comes from newOpenResult(len(s.ins)).
func openLoop(cl client, s schedule, res openResult, tr *tracer) openResult {
	cpu0 := cpuTime()
	res.start = time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range s.ins {
		due := res.start.Add(s.due[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.late[i] = ms(time.Since(due))
		o := &res.outs[i]
		o.in, o.due = &s.ins[i], due
		wg.Add(1)
		go func() {
			defer wg.Done()
			sendOne(cl, o, tr)
		}()
	}
	wg.Wait()
	res.wall = time.Since(res.start)
	res.cpu = cpuTime() - cpu0
	return res
}

func sendOne(cl client, o *outcome, tr *tracer) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	var id uint64
	if tr != nil {
		id = tr.newID()
	}
	rep, err := cl.send(ctx, o.in, id)
	o.end = time.Now()
	o.rep = rep
	classify(o, err)
	if tr != nil {
		tr.add(span{ID: id, Name: "request", Start: tr.at(o.due), End: tr.at(o.end)})
	}
}

// peakWindows is how many equal windows the closed loop's completions
// are counted in after its warm-up tenth; peak_rps is their median rate.
const peakWindows = 8

// closedResult is one closed-loop phase. Outcomes are folded into
// counters as they arrive, so the benchmark's own memory does not grow
// with the system's throughput.
type closedResult struct {
	start  time.Time
	dur    time.Duration
	counts [peakWindows]atomic.Int64
	tally  tally
}

// closedLoop keeps outstanding requests in flight for dur, cycling
// through ins, and waits for the last replies.
func closedLoop(cl client, ins []input, outstanding int, dur time.Duration, gen bool, tr *tracer) *closedResult {
	res := &closedResult{start: time.Now(), dur: dur}
	stopAt := res.start.Add(dur)
	warm := dur / 10
	win := (dur - warm) / peakWindows
	var next atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < outstanding; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stopAt) {
				i := next.Add(1) - 1
				o := outcome{in: &ins[i%uint64(len(ins))], due: time.Now()}
				sendOne(cl, &o, tr)
				res.tally.add(&o, gen)
				if k := int(o.end.Sub(res.start.Add(warm)) / win); o.ok() && k >= 0 && k < peakWindows {
					res.counts[k].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// peakRPS is the median over the windows of completions per second, and
// the completions counted.
func (r *closedResult) peakRPS() (float64, int) {
	win := (r.dur - r.dur/10) / peakWindows
	rates := make([]float64, peakWindows)
	done := 0
	for k := range r.counts {
		n := r.counts[k].Load()
		done += int(n)
		rates[k] = float64(n) / win.Seconds()
	}
	return median(rates), done
}

// tally counts outcomes against the correctness checks.
type tally struct {
	mu                         sync.Mutex
	sent, typed, untyped, lost int
	badLen, badOut             int
	firstErr                   string
}

func (t *tally) add(o *outcome, gen bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sent++
	switch {
	case o.ok():
		if o.rep.seqLen != o.in.length {
			t.badLen++
		}
		if gen && o.rep.outTokens != o.in.maxNew {
			t.badOut++
		}
	case o.typed:
		t.typed++
	case o.lost:
		t.lost++
	default:
		t.untyped++
		if t.firstErr == "" {
			t.firstErr = o.err.Error()
		}
	}
}
