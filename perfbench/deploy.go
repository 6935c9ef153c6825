package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"arlo/internal/cluster"
	"arlo/internal/core"
	"arlo/internal/router"
	"arlo/internal/serve"
	"arlo/internal/tenant"
	"arlo/internal/tokenizer"
	"arlo/internal/trace"
)

// shardSpec is one server of a deployment.
type shardSpec struct {
	Name string `json:"name"`
	GPUs int    `json:"gpus"`
}

// socketSpec fixes everything about a socket workload except the seed.
type socketSpec struct {
	Name        string          `json:"name"`
	Model       string          `json:"model"`
	Shards      []shardSpec     `json:"shards"`
	Router      bool            `json:"router"`
	Protocol    string          `json:"protocol"` // "wire" or "json"
	Generative  bool            `json:"generative"`
	TimeScale   float64         `json:"timescale"`
	MaxBatch    int             `json:"max_batch"`
	Continuous  bool            `json:"continuous"`
	MeanOut     float64         `json:"mean_out_tokens,omitempty"`
	MaxOut      int             `json:"max_out_tokens,omitempty"`
	Ingress     bool            `json:"ingress"`
	Tenants     []tenant.Config `json:"tenants,omitempty"`
	RateRPS     float64         `json:"rate_rps"`
	LimitMS     float64         `json:"latency_limit_ms,omitempty"`
	TTFTLimitMS float64         `json:"ttft_limit_ms,omitempty"`
	TPOTLimitMS float64         `json:"tpot_limit_ms,omitempty"`
	Conns       int             `json:"conns"`
	Outstanding int             `json:"closed_loop_outstanding"`
	Lengths     string          `json:"lengths"`
	// ClosedShare is the closed loop's share of a run, when not the
	// default closedShare.
	ClosedShare float64 `json:"closed_share,omitempty"`
	// HostsSim runs the sim-bursty simulation inside the traced run.
	HostsSim bool `json:"hosts_sim_bursty,omitempty"`
}

// driftSeed pins the minute-scale drift of the Twitter length
// distributions, so every seed draws from the same minute of the trace;
// --seed still draws every arrival time and every length.
const driftSeed = 1

// traceConfig returns the seeded arrival and length process of the spec.
func (s *socketSpec) traceConfig(seed int64, dur time.Duration) trace.Config {
	var cfg trace.Config
	if s.Generative {
		cfg = trace.Generative(seed, s.RateRPS, dur, s.MeanOut, s.MaxOut)
	} else {
		cfg = trace.Stable(seed, s.RateRPS, dur)
	}
	cfg.Lengths = trace.TwitterRecalibrated(driftSeed)
	if s.Lengths == "twitter" {
		cfg.Lengths = trace.TwitterLengths(driftSeed)
	}
	return cfg
}

// within reports whether a completed request met the workload's limit.
func (s *socketSpec) within(o *outcome) bool {
	if s.Generative {
		return o.rep.ttftMS <= s.TTFTLimitMS && o.rep.tpotMS <= s.TPOTLimitMS
	}
	return ms(o.latency()) <= s.LimitMS
}

// node is one in-process arlo-server.
type node struct {
	spec    shardSpec
	alloc   []int
	cl      *cluster.Cluster
	srv     *serve.Server
	ln      net.Listener
	httpSrv *http.Server
}

// deployment is a running system under test plus the benchmark's client.
type deployment struct {
	a       *core.Arlo
	nodes   []*node
	rt      *router.Router
	rtLn    net.Listener
	client  client
	allocMS []float64
}

// deploy brings the workload's system up the way cmd/arlo-server and
// cmd/arlo-router do, from profile to a dialled client, and returns once
// it can serve. demand is the trace the allocation is solved for.
func (s *socketSpec) deploy(demand *trace.Trace, seed int64, tr *tracer) (*deployment, error) {
	a, err := core.NewSystem(core.WithModel(s.Model))
	if err != nil {
		return nil, err
	}
	d := &deployment{a: a}
	total := 0
	for _, sh := range s.Shards {
		total += sh.GPUs
	}
	q := a.Demand(demand)
	for _, sh := range s.Shards {
		share := make([]float64, len(q))
		for i := range q {
			share[i] = q[i] * float64(sh.GPUs) / float64(total)
		}
		t0 := time.Now()
		al, err := a.Allocate(sh.GPUs, share)
		d.allocMS = append(d.allocMS, ms(time.Since(t0)))
		if err != nil {
			d.close()
			return nil, fmt.Errorf("allocate %s: %w", sh.Name, err)
		}
		n, err := s.startNode(a, sh, al.N, tr)
		if err != nil {
			d.close()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
	}
	addr := d.nodes[0].ln.Addr().String()
	if s.Router {
		cfg := router.Config{
			Policy:                  router.PolicyLengthAware,
			SnapshotRefreshInterval: 100 * time.Millisecond,
			MaxLength:               a.Model.Arch().MaxLength,
			Seed:                    seed,
		}
		for _, n := range d.nodes {
			cfg.Shards = append(cfg.Shards, router.ShardConfig{Name: n.spec.Name, Addr: n.ln.Addr().String()})
		}
		if d.rt, err = router.New(cfg); err != nil {
			d.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		d.rtLn = ln
		go func() { _ = d.rt.ServeWire(tr.wrapListener(ln, "router")) }()
		if err := d.waitSnapshots(); err != nil {
			d.close()
			return nil, err
		}
		addr = ln.Addr().String()
	}
	if s.Protocol == "json" {
		d.client = newJSONClient(addr, s.Conns)
	} else {
		if d.client, err = dialWire(addr, s.Conns, s.Generative); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (s *socketSpec) startNode(a *core.Arlo, sh shardSpec, alloc []int, tr *tracer) (*node, error) {
	var reg *tenant.Registry
	if len(s.Tenants) > 0 {
		var err error
		if reg, err = tenant.NewRegistry(s.Tenants...); err != nil {
			return nil, err
		}
	}
	cl, err := cluster.New(cluster.Config{
		Profile:           a.Profile,
		InitialAllocation: alloc,
		Dispatcher:        tr.wrapFactory(a.DispatcherFactory()),
		TimeScale:         s.TimeScale,
		MaxBatch:          s.MaxBatch,
		Continuous:        s.Continuous,
		MeanOutTokens:     s.MeanOut,
		Tenants:           reg,
	})
	if err != nil {
		return nil, err
	}
	opts := []serve.Option{serve.WithMaxLength(a.Model.Arch().MaxLength)}
	if s.Router {
		opts = append(opts, serve.WithShardName(sh.Name))
	}
	if s.Ingress {
		opts = append(opts, serve.WithIngress(cluster.IngressConfig{}))
	}
	srv, err := serve.New(tokenizer.New(), cl, opts...)
	if err != nil {
		cl.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		cl.Close()
		return nil, err
	}
	n := &node{spec: sh, alloc: alloc, cl: cl, srv: srv, ln: ln}
	if s.Protocol == "json" && !s.Router {
		n.httpSrv = &http.Server{Handler: tr.wrapHandler(srv), ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = n.httpSrv.Serve(ln) }()
	} else {
		go func() { _ = srv.ServeWire(tr.wrapListener(ln, "serve")) }()
	}
	return n, nil
}

// waitSnapshots returns once the router holds a load snapshot of every
// shard, as read from its /healthz.
func (d *deployment) waitSnapshots() error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		body, _ := get(d.rt, "/healthz")
		var h router.HealthResponse
		if json.Unmarshal([]byte(body), &h) == nil && len(h.Shards) == len(d.nodes) {
			ready := 0
			for _, sh := range h.Shards {
				if sh.Seq > 0 && sh.State == "up" {
					ready++
				}
			}
			if ready == len(d.nodes) {
				return nil
			}
		}
		// Sleep rather than yield: a goroutine spinning on Gosched kept
		// the router's probe replies waiting for the network poller, and
		// setup_s flipped between 1.5 and 4.7 ms from run to run.
		time.Sleep(50 * time.Microsecond)
	}
	return fmt.Errorf("router: no snapshot of every shard within 5s")
}

func (d *deployment) close() {
	if d.client != nil {
		d.client.close()
	}
	if d.rt != nil {
		_ = d.rt.Close()
	}
	if d.rtLn != nil {
		_ = d.rtLn.Close()
	}
	for _, n := range d.nodes {
		if n.httpSrv != nil {
			_ = n.httpSrv.Close()
		}
		_ = n.srv.Close()
		_ = n.ln.Close()
		n.cl.Close()
	}
}

// get serves one GET through h in process and returns the body.
func get(h http.Handler, path string) (string, time.Duration) {
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.String(), time.Since(t0)
}

// promSample is one sample of a Prometheus text metric: its label set
// as written (with braces, or empty) and its value.
type promSample struct {
	labels string
	value  float64
}

// promSamples returns every sample of a Prometheus text metric whose
// name is exactly name.
func promSamples(text, name string) []promSample {
	var out []promSample
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		cut := strings.LastIndexByte(rest, '}') + 1
		f := strings.Fields(rest[cut:])
		if len(f) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(f[0], 64); err == nil {
			out = append(out, promSample{rest[:cut], v})
		}
	}
	return out
}

// promSum sums every sample of a metric whose labels contain every label
// in match.
func promSum(text, name string, match ...string) float64 {
	sum := 0.0
	for _, s := range promSamples(text, name) {
		ok := true
		for _, m := range match {
			ok = ok && strings.Contains(s.labels, m)
		}
		if ok {
			sum += s.value
		}
	}
	return sum
}

// conserved waits until a server's /metrics balances submitted against
// completed + cancelled + rejected, and returns the last scrape.
func (n *node) conserved() (text string, ok bool, msg string) {
	deadline := time.Now().Add(3 * time.Second)
	for {
		text, _ = get(n.srv, "/metrics")
		sub := promSum(text, "arlo_requests_submitted_total")
		done := promSum(text, "arlo_requests_completed_total") +
			promSum(text, "arlo_requests_cancelled_total") +
			promSum(text, "arlo_requests_rejected_total")
		if sub == done {
			return text, true, ""
		}
		if time.Now().After(deadline) {
			return text, false, fmt.Sprintf("%s: /metrics submitted %.0f != completed+cancelled+rejected %.0f",
				n.spec.Name, sub, done)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
