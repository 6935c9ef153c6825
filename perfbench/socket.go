package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"arlo/internal/obs"
	"arlo/internal/tenant"
	"arlo/internal/trace"
)

// Shares of a phase's seconds: warm-up at the fixed rate, then the
// measured open loop, then the closed loop, unless the workload sets its
// own closed-loop share; the open loop takes the rest.
const (
	warmShare   = 0.10
	closedShare = 0.20
)

// closedPool is how many distinct inputs the closed loop cycles through.
const closedPool = 4096

// demandWindow is the length of the reference trace a deployment's
// allocation is solved for.
const demandWindow = time.Minute

// phase is one measured run of a socket workload.
type phase struct {
	setupS     []float64
	allocMS    []float64
	open       openResult
	closed     *closedResult
	warm       openResult
	heapMB     float64
	checks     []string // failed correctness checks
	sent       int
	failed     int
	metricsTxt []string // each node's /metrics after drain
	scrapeMS   []float64
	routerTxt  string
	submitted  []float64 // per node
	capacity   []float64 // per node
	reroutes   uint64
	depth      []float64
	levels     int
	allocation map[string][]int // instances per runtime, by shard
}

// runSocket generates the phase's inputs, then sets the system up
// `setups` times (keeping the last), and drives the warm-up, open-loop
// and closed-loop phases for `seconds` in total.
func runSocket(spec *socketSpec, seed int64, seconds float64, setups int, tr *tracer) (*phase, error) {
	warm := time.Duration(seconds * warmShare * float64(time.Second))
	closed := closedShare
	if spec.ClosedShare > 0 {
		closed = spec.ClosedShare
	}
	openDur := time.Duration(seconds * (1 - warmShare - closed) * float64(time.Second))
	closedDur := time.Duration(seconds * closed * float64(time.Second))

	tb, err := newTextBuilder()
	if err != nil {
		return nil, err
	}
	full, err := trace.Generate(spec.traceConfig(seed, warm+openDur))
	if err != nil {
		return nil, err
	}
	var names []string
	var weights []float64
	for _, t := range spec.Tenants {
		names = append(names, t.ID)
		weights = append(weights, t.Weight)
	}
	all, err := tb.fromTrace(full, seed, names, weights)
	if err != nil {
		return nil, err
	}
	var warmS, openS schedule
	for i, d := range all.due {
		if d < warm {
			warmS.due = append(warmS.due, d)
			warmS.ins = append(warmS.ins, all.ins[i])
		} else {
			openS.due = append(openS.due, d-warm)
			openS.ins = append(openS.ins, all.ins[i])
		}
	}
	// The deployment is planned for the workload's length mix at its
	// fixed rate, from a reference trace that does not depend on --seed:
	// the allocation solve is discrete, and solving it for each seed's own
	// arrivals gave five different allocations in six seeds.
	demand, err := trace.Generate(spec.traceConfig(driftSeed, demandWindow))
	if err != nil {
		return nil, err
	}
	poolTrace, err := trace.Generate(spec.traceConfig(seed+7919, time.Duration(float64(closedPool)/spec.RateRPS*1.2*float64(time.Second))))
	if err != nil {
		return nil, err
	}
	pool, err := tb.fromTrace(poolTrace, seed+7919, names, weights)
	if err != nil {
		return nil, err
	}

	ph := &phase{}
	warmRes, openRes := newOpenResult(len(warmS.ins)), newOpenResult(len(openS.ins))
	runtime.GC()
	heap := startHeapSampler()
	var d *deployment
	for k := 0; k < setups; k++ {
		// Each set-up starts from a collected heap, so the garbage of the
		// previous one is not collected inside the timed set-up.
		runtime.GC()
		t0 := time.Now()
		err = tr.timed("setup", func() (err error) {
			d, err = spec.deploy(demand, seed, tr)
			return err
		})
		if err != nil {
			heap.finish()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ph.setupS = append(ph.setupS, time.Since(t0).Seconds())
		ph.allocMS = append(ph.allocMS, d.allocMS...)
		if k < setups-1 {
			d.close()
		}
	}
	defer d.close()
	ph.levels = len(d.a.Profile.Runtimes)
	ph.allocation = map[string][]int{}
	for _, n := range d.nodes {
		ph.allocation[n.spec.Name] = n.alloc
	}
	// Start the measured phases at the same point of the GC cycle in
	// every run, so heap_peak_mb does not depend on how set-up left it.
	runtime.GC()

	ph.warm = openLoop(d.client, warmS, warmRes, nil)
	stopDepth := make(chan struct{})
	var depthWG sync.WaitGroup
	if tr != nil {
		depthWG.Add(1)
		go func() {
			defer depthWG.Done()
			ph.depth = sampleDepth(d, stopDepth)
		}()
	}
	ph.open = openLoop(d.client, openS, openRes, tr)
	close(stopDepth)
	depthWG.Wait()
	ph.closed = closedLoop(d.client, pool.ins, spec.Outstanding, closedDur, spec.Generative, tr)
	ph.heapMB = heap.finish()

	ph.check(spec)
	for _, n := range d.nodes {
		text, ok, msg := n.conserved()
		if !ok {
			ph.checks = append(ph.checks, msg)
		}
		_, dt := get(n.srv, "/metrics")
		ph.scrapeMS = append(ph.scrapeMS, ms(dt))
		ph.metricsTxt = append(ph.metricsTxt, text)
		snap := n.srv.LoadSnapshot()
		ph.submitted = append(ph.submitted, float64(snap.Submitted))
		c := 0.0
		for _, lv := range snap.Levels {
			c += float64(lv.Capacity)
		}
		ph.capacity = append(ph.capacity, c)
	}
	if d.rt != nil {
		ph.routerTxt, _ = get(d.rt, "/metrics")
		ph.reroutes = d.rt.Reroutes()
	}
	return ph, nil
}

// sampleDepth sums every node's queued requests every 10 ms until stop.
func sampleDepth(d *deployment, stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		for _, n := range d.nodes {
			snap := n.srv.LoadSnapshot()
			depth := 0.0
			for _, lv := range snap.Levels {
				depth += float64(lv.Depth)
			}
			out = append(out, depth)
		}
	}
}

// each calls fn on every kept outcome: the warm-up and the open loop.
func (ph *phase) each(fn func(o *outcome)) {
	for _, outs := range [][]outcome{ph.warm.outs, ph.open.outs} {
		for i := range outs {
			fn(&outs[i])
		}
	}
}

// check audits every reply against its input and the conservation of
// requests at the client.
func (ph *phase) check(spec *socketSpec) {
	t := &ph.closed.tally
	ph.each(func(o *outcome) { t.add(o, spec.Generative) })
	ph.sent = t.sent
	ph.failed = t.typed + t.untyped + t.lost
	if t.badLen > 0 {
		ph.checks = append(ph.checks, fmt.Sprintf("%d replies with sequence_length != intended length", t.badLen))
	}
	if t.badOut > 0 {
		ph.checks = append(ph.checks, fmt.Sprintf("%d generative replies with output_tokens != max_new_tokens", t.badOut))
	}
	if t.untyped > 0 {
		ph.checks = append(ph.checks, fmt.Sprintf("%d untyped errors (first: %s)", t.untyped, t.firstErr))
	}
	if t.lost > 0 {
		ph.checks = append(ph.checks, fmt.Sprintf("%d requests lost (no reply within %v)", t.lost, requestTimeout))
	}
}

// latencyWindow is how many open-loop completions, in due order, each
// latency window holds: enough that a window's p99 has ten samples
// beyond it.
const latencyWindow = 1000

// openLatencies returns the latencies (ms) of the open loop's completed
// requests in due order, the pooled p50 and p99 over all of them, and
// each window's p99.
func (ph *phase) openLatencies() (lats []float64, p50, p99 float64, windowP99s []float64) {
	for i := range ph.open.outs {
		if o := &ph.open.outs[i]; o.ok() {
			lats = append(lats, ms(o.latency()))
		}
	}
	for k := 0; k+latencyWindow <= len(lats); k += latencyWindow {
		windowP99s = append(windowP99s, quantile(lats[k:k+latencyWindow], 0.99))
	}
	return lats, quantile(lats, 0.50), quantile(lats, 0.99), windowP99s
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the gated end-to-end metrics of an untraced phase
// plus the workload's own figures that are printed but not gated.
func (ph *phase) endToEnd(spec *socketSpec) (gated, extra map[string]metric, notes map[string]string) {
	lats, p50, p99, windowP99s := ph.openLatencies()
	n := len(lats)
	within := 0
	for i := range ph.open.outs {
		if o := &ph.open.outs[i]; o.ok() && spec.within(o) {
			within++
		}
	}
	peak, peakN := ph.closed.peakRPS()
	gated = map[string]metric{
		"setup_s":        {median(ph.setupS), "s"},
		"latency_p50_ms": {p50, "ms"},
		"latency_p99_ms": {p99, "ms"},
		"slo_attainment": {float64(within) / float64(len(ph.open.outs)), "share"},
		"peak_rps":       {peak, "1/s"},
		"heap_peak_mb":   {ph.heapMB, "MB"},
	}
	extra = map[string]metric{
		"failed_share":                 {float64(ph.failed) / float64(ph.sent), "share"},
		"open_sent":                    {float64(len(ph.open.outs)), "count"},
		"open_completed":               {float64(n), "count"},
		"latency_p99_beyond":           {float64(n) * 0.01, "count"},
		"latency_p99_windows":          {float64(len(windowP99s)), "count"},
		"latency_p99_window_median_ms": {median(windowP99s), "ms"},
		"latency_p99_window_worst_ms":  {quantile(windowP99s, 1), "ms"},
		"closed_completed":             {float64(peakN), "count"},
		"achieved_rps":                 {float64(len(ph.open.outs)) / ph.open.wall.Seconds(), "1/s"},
		"loadgen_late_p99_ms":          {quantile(ph.open.late, 0.99), "ms"},
	}
	if spec.Generative {
		var ttft, tpot []float64
		for i := range ph.open.outs {
			if o := &ph.open.outs[i]; o.ok() {
				ttft = append(ttft, o.rep.ttftMS)
				tpot = append(tpot, o.rep.tpotMS)
			}
		}
		extra["ttft_p50_ms"] = metric{quantile(ttft, 0.5), "ms"}
		extra["ttft_p99_ms"] = metric{quantile(ttft, 0.99), "ms"}
		extra["tpot_p50_ms"] = metric{quantile(tpot, 0.5), "ms"}
		extra["tpot_p99_ms"] = metric{quantile(tpot, 0.99), "ms"}
	}
	notes = map[string]string{
		"latency_p50_ms":               fmt.Sprintf("wall, socket to socket from due time, over all %d open-loop completions", n),
		"latency_p99_ms":               fmt.Sprintf("wall; pooled over %d completions, %.0f samples beyond it", n, float64(n)*0.01),
		"latency_p99_window_median_ms": fmt.Sprintf("wall; median p99 of %d windows of %d consecutive completions", len(windowP99s), latencyWindow),
		"latency_p99_window_worst_ms":  "wall; highest p99 of the same windows",
		"slo_attainment":               "completed within the limit / sent (failed count as misses)",
		"peak_rps":                     fmt.Sprintf("wall; closed loop, %d outstanding, median of 8 windows", spec.Outstanding),
		"setup_s":                      fmt.Sprintf("wall; median of %d set-ups", len(ph.setupS)),
		"heap_peak_mb":                 "peak live Go heap (as marked by the latest GC) during the phase",
	}
	if spec.Generative {
		notes["ttft_p50_ms"] = "server-reported, modeled time"
		notes["tpot_p50_ms"] = "server-reported, modeled time"
	}
	return gated, extra, notes
}

// perLayer computes the per-layer metrics of a traced phase. untraced is
// the same workload's untraced phase, for the tracing overhead.
func (ph *phase) perLayer(spec *socketSpec, tr *tracer, untraced *phase, profileCost func(rt, length, out int) float64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("loadgen.late_p99_ms", quantile(ph.open.late, 0.99), "ms")
	put("process.cpu_cores", ph.open.cpu.Seconds()/ph.open.wall.Seconds(), "cores")

	// Layer residences from the benchmark's spans of the open loop. A
	// request's router span encloses its shard span, so the difference of
	// the layer means is the outer layer's own time.
	from, to := tr.at(ph.open.start), tr.at(ph.open.start.Add(ph.open.wall))
	reqRes := tr.durationsMS("request", from, to)
	routerRes := tr.durationsMS("router", from, to)
	serveRes := tr.durationsMS("serve", from, to)
	put("router.residence_ms_p50", quantile(routerRes, 0.5), "ms")
	routerSelf, inner := 0.0, mean(serveRes)
	if len(routerRes) > 0 {
		routerSelf, inner = mean(routerRes)-mean(serveRes), mean(routerRes)
	}
	put("router.self_ms_mean", routerSelf, "ms")
	put("request.self_ms_mean", mean(reqRes)-inner, "ms")
	put("serve.residence_ms_p50", quantile(serveRes, 0.5), "ms")
	put("serve.residence_ms_p99", quantile(serveRes, 0.99), "ms")

	routeMean := 0.0
	if c := promSum(ph.routerTxt, "arlo_router_route_seconds_count"); c > 0 {
		routeMean = promSum(ph.routerTxt, "arlo_router_route_seconds_sum") / c * 1e3
	}
	put("router.route_ms_mean", routeMean, "ms")
	put("router.reroutes", float64(ph.reroutes), "count")
	imb := 0.0
	if len(ph.submitted) > 1 {
		var sub, capSum float64
		for i := range ph.submitted {
			sub += ph.submitted[i]
			capSum += ph.capacity[i]
		}
		var ratios []float64
		for i := range ph.submitted {
			ratios = append(ratios, (ph.submitted[i]/sub)/(ph.capacity[i]/capSum))
		}
		sort.Float64s(ratios)
		imb = ratios[len(ratios)-1] / mean(ratios)
	}
	put("router.imbalance", imb, "ratio")

	// Timed passes over the run's own inputs through public calls.
	var texts []*input
	ph.each(func(o *outcome) {
		if len(texts) < 4000 {
			texts = append(texts, o.in)
		}
	})
	encUS, toks := timeEncode(texts)
	put("tokenizer.encode_us_p50", encUS, "us")
	put("tokenizer.tokens_mean", toks, "tokens")
	put("wire.codec_ns_p50", median(tr.codecNS.values()), "ns")
	put("tenant.admit_ns_p50", timeAdmit(spec.Tenants, texts), "ns")
	put("obs.record_span_ns_p50", timeRecordSpan(ph, spec), "ns")
	put("obs.scrape_ms", median(ph.scrapeMS), "ms")

	// Program-reported counters, summed over servers.
	sumAll := func(name string, match ...string) float64 {
		s := 0.0
		for _, t := range ph.metricsTxt {
			s += promSum(t, name, match...)
		}
		return s
	}
	ratio := func(num, den string) float64 {
		if c := sumAll(den); c > 0 {
			return sumAll(num) / c
		}
		return 0
	}
	put("tenant.refused", sumAll("arlo_admission_total", `decision="rejected"`), "count")
	put("cluster.ingress_wait_ms_mean", ratio("arlo_ingress_wait_seconds_sum", "arlo_ingress_wait_seconds_count")*1e3, "ms")
	put("cluster.requeues", sumAll("arlo_requeues_total"), "count")
	put("batcher.form_wait_ms_mean", ratio("arlo_batch_form_wait_seconds_sum", "arlo_batch_form_wait_seconds_count")*1e3*spec.TimeScale, "ms")
	var occ []float64
	for _, t := range ph.metricsTxt {
		for _, s := range promSamples(t, "arlo_batch_occupancy") {
			if s.value > 0 {
				occ = append(occ, s.value)
			}
		}
	}
	put("batcher.occupancy_mean", mean(occ), "share")

	// Reply fields of the measured open loop.
	var queue, infl, batch, ttft, tpot []float64
	for i := range ph.open.outs {
		o := &ph.open.outs[i]
		if !o.ok() {
			continue
		}
		// Replies carry modeled time (wall / TimeScale); scale back to wall.
		queue = append(queue, o.rep.queueMS*spec.TimeScale)
		if o.rep.batchSize > 0 {
			batch = append(batch, float64(o.rep.batchSize))
		}
		// Replies and the profile are both modeled time, so their ratio is
		// the inflation at any TimeScale; below 1 the kernels hardly sleep.
		if spec.TimeScale >= 1 && o.rep.batchSize <= 1 {
			out := 1
			if spec.Generative {
				out = o.rep.outTokens
			}
			if c := profileCost(o.rep.runtime, o.rep.seqLen, out); c > 0 {
				infl = append(infl, o.rep.execMS/c)
			}
		}
		if spec.Generative {
			ttft = append(ttft, o.rep.ttftMS)
			tpot = append(tpot, o.rep.tpotMS)
		}
	}
	put("cluster.queue_ms_p50", quantile(queue, 0.5), "ms")
	put("cluster.queue_ms_p99", quantile(queue, 0.99), "ms")
	put("cluster.exec_inflation_p50", quantile(infl, 0.5), "ratio")
	put("cluster.exec_inflation_p99", quantile(infl, 0.99), "ratio")
	put("cluster.ttft_ms_p50", quantile(ttft, 0.5), "ms")
	put("cluster.ttft_ms_p99", quantile(ttft, 0.99), "ms")
	put("cluster.tpot_ms_p50", quantile(tpot, 0.5), "ms")
	put("cluster.tpot_ms_p99", quantile(tpot, 0.99), "ms")
	put("batcher.batch_size_mean", mean(batch), "requests")

	// Dispatch decisions seen by the wrapped dispatcher.
	put("dispatch.decide_ns_p50", median(tr.dispatchNS.values()), "ns")
	dec := float64(tr.decisions.Load())
	share := func(n int64) float64 {
		if dec == 0 {
			return 0
		}
		return float64(n) / dec
	}
	put("dispatch.peeked_mean", share(tr.peeked.Load()), "levels")
	put("dispatch.fallback_share", share(tr.fallbacks.Load()), "share")
	put("dispatch.demotion_share", share(tr.demotions.Load()), "share")
	put("queue.depth_mean", mean(ph.depth), "requests")

	put("allocator.allocate_ms", median(ph.allocMS), "ms")
	put("allocator.calls", float64(len(ph.allocMS))/float64(len(ph.setupS)), "count")

	// Tracing overhead: the traced phase against the untraced one.
	ug, _, _ := untraced.endToEnd(spec)
	tg, _, _ := ph.endToEnd(spec)
	// A run too short to complete a request in some window (the
	// self-check's) leaves an untraced figure at 0; report no overhead.
	overhead := func(traced, untraced float64) float64 {
		if untraced == 0 {
			return 0
		}
		return traced/untraced - 1
	}
	put("trace.overhead_latency_p50", overhead(tg["latency_p50_ms"].Value, ug["latency_p50_ms"].Value), "share")
	put("trace.overhead_peak_rps", -overhead(tg["peak_rps"].Value, ug["peak_rps"].Value), "share")
	return m
}

// timeEncode times tokenizer.Encode on the run's texts.
func timeEncode(ins []*input) (p50US, meanTokens float64) {
	tb, err := newTextBuilder()
	if err != nil || len(ins) == 0 {
		return 0, 0
	}
	var us []float64
	toks := 0
	for _, in := range ins {
		t0 := time.Now()
		ids := tb.tok.Encode(in.text, 512)
		us = append(us, float64(time.Since(t0))/1e3)
		toks += len(ids)
	}
	return median(us), float64(toks) / float64(len(ins))
}

// timeAdmit replays the run's tenant sequence through a fresh registry
// with the workload's tenant configs, timing each admission.
func timeAdmit(cfgs []tenant.Config, ins []*input) float64 {
	if len(cfgs) == 0 {
		return 0
	}
	reg, err := tenant.NewRegistry(cfgs...)
	if err != nil {
		return 0
	}
	var ns []float64
	for _, in := range ins {
		t0 := time.Now()
		reg.Get(in.tenant).Admit(in.length)
		ns = append(ns, float64(time.Since(t0)))
	}
	return median(ns)
}

// timeRecordSpan records the run's replies as spans into a fresh
// recorder, timing each Recorder.RecordSpan call.
func timeRecordSpan(ph *phase, spec *socketSpec) float64 {
	rec := obs.NewRecorder(ph.levels)
	var ns []float64
	for i := range ph.open.outs {
		o := &ph.open.outs[i]
		if !o.ok() {
			continue
		}
		s := obs.Span{
			Length:    o.rep.seqLen,
			Queue:     time.Duration(o.rep.queueMS * 1e6),
			Exec:      time.Duration(o.rep.execMS * 1e6),
			Total:     o.latency(),
			Level:     o.rep.runtime,
			BatchSize: o.rep.batchSize,
			OutTokens: o.rep.outTokens,
			TTFT:      time.Duration(o.rep.ttftMS * 1e6),
		}
		t0 := time.Now()
		rec.RecordSpan(&s)
		ns = append(ns, float64(time.Since(t0)))
	}
	return median(ns)
}
