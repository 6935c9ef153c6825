package main

import (
	"fmt"
	"runtime"
	"time"

	"arlo/internal/core"
	"arlo/internal/sim"
	"arlo/internal/trace"
)

// simSpec fixes the discrete-event workload except the seed.
type simSpec struct {
	Name     string        `json:"name"`
	Model    string        `json:"model"`
	GPUs     int           `json:"gpus"`
	RateRPS  float64       `json:"rate_rps"`
	Duration time.Duration `json:"trace_duration_ns"`
}

// simPhase is one measured run of the simulator workload.
type simPhase struct {
	setupS    []float64
	wallS     []float64
	requests  int
	res       *sim.Result
	summary   string
	heapMB    float64
	checks    []string
	tracedRes *tracer
}

// modeledSummary renders every modeled output of a simulation, so two
// runs can be compared byte for byte.
func modeledSummary(res *sim.Result) string {
	return fmt.Sprintf("%+v replacements=%d failures=%d buffered_peak=%d gpus=%.6f allocations=%v per_runtime=%+v",
		res.Summary, res.Replacements, res.Failures, res.BufferedPeak, res.TimeWeightedGPUs,
		res.Allocations, res.PerRuntime)
}

// runSim generates the trace, sets the simulation up `setups` times and
// runs it repeatedly until `seconds` have passed (at least once).
func runSim(spec *simSpec, seed int64, seconds float64, setups int, tr *tracer) (*simPhase, error) {
	tc, err := trace.Generate(trace.Bursty(seed, spec.RateRPS, spec.Duration))
	if err != nil {
		return nil, err
	}
	ph := &simPhase{requests: len(tc.Requests), tracedRes: tr}
	runtime.GC()
	heap := startHeapSampler()
	var cfg sim.Config
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		a, err := core.NewSystem(core.WithModel(spec.Model))
		if err == nil {
			cfg, err = a.SimConfig(tc, spec.GPUs)
		}
		if err != nil {
			heap.finish()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ph.setupS = append(ph.setupS, time.Since(t0).Seconds())
	}
	cfg.Dispatcher = tr.wrapFactory(cfg.Dispatcher)
	cfg.Allocate = tr.wrapAllocator(cfg.Allocate)
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for len(ph.wallS) == 0 || time.Since(start) < budget {
		t0 := time.Now()
		var res *sim.Result
		err := tr.timed("sim.run", func() (err error) {
			res, err = sim.Run(cfg)
			return err
		})
		if err != nil {
			heap.finish()
			return nil, err
		}
		ph.wallS = append(ph.wallS, time.Since(t0).Seconds())
		sum := modeledSummary(res)
		if ph.res == nil {
			ph.res, ph.summary = res, sum
		} else if sum != ph.summary {
			ph.checks = append(ph.checks, "repeated simulation of the same trace gave a different modeled summary")
		}
		if tr != nil {
			break // one traced run: the wrappers' totals cover exactly it
		}
	}
	ph.heapMB = heap.finish()
	if ph.res.Completed+ph.res.Rejected != ph.requests {
		ph.checks = append(ph.checks, fmt.Sprintf("completed %d + rejected %d != trace size %d",
			ph.res.Completed, ph.res.Rejected, ph.requests))
	}
	return ph, nil
}

func (ph *simPhase) endToEnd() (gated map[string]metric, notes map[string]string) {
	gated = map[string]metric{
		"setup_s":                {median(ph.setupS), "s"},
		"modeled_p98_ms":         {ms(ph.res.Summary.P98), "ms"},
		"modeled_slo_attainment": {float64(ph.res.Summary.Count-ph.res.Summary.SLOViolations) / float64(ph.requests), "share"},
		"sim_requests_per_s":     {float64(ph.requests) / median(ph.wallS), "1/s"},
		"failed_share":           {float64(ph.res.Rejected) / float64(ph.requests), "share"},
		"heap_peak_mb":           {ph.heapMB, "MB"},
	}
	notes = map[string]string{
		"setup_s":                fmt.Sprintf("wall; median of %d set-ups (profile + initial allocation solve)", len(ph.setupS)),
		"modeled_p98_ms":         "modeled time",
		"modeled_slo_attainment": "modeled; completed within the profile SLO / trace size",
		"sim_requests_per_s":     fmt.Sprintf("wall; trace size / median of %d simulation wall times", len(ph.wallS)),
		"failed_share":           "rejected / trace size",
		"heap_peak_mb":           "peak live Go heap (as marked by the latest GC) during the phase",
	}
	return gated, notes
}

// perLayer reports the traced simulation's layers; untraced is the same
// trace simulated without wrappers.
func (ph *simPhase) perLayer(untraced *simPhase) map[string]metric {
	tr := ph.tracedRes
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	dec := float64(tr.decisions.Load())
	share := func(n int64) float64 {
		if dec == 0 {
			return 0
		}
		return float64(n) / dec
	}
	put("dispatch.decide_ns_p50", median(tr.dispatchNS.values()), "ns")
	put("dispatch.peeked_mean", share(tr.peeked.Load()), "levels")
	put("dispatch.fallback_share", share(tr.fallbacks.Load()), "share")
	put("dispatch.demotion_share", share(tr.demotions.Load()), "share")
	allocs := tr.allocMS.values()
	put("allocator.allocate_ms", median(allocs), "ms")
	put("allocator.calls", float64(len(allocs)), "count")
	put("allocator.replacements", float64(ph.res.Replacements), "count")
	inside := time.Duration(tr.dispatchT.Load() + tr.allocNS.Load())
	put("sim.self_s", ph.wallS[0]-inside.Seconds(), "s")
	put("trace.overhead_sim_requests_per_s", 1-median(untraced.wallS)/ph.wallS[0], "share")
	return m
}
