package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/cluster"
	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/obs"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/trace"
)

// benchBatchResult is the BENCH_batch.json schema: one arm per batching
// mode plus the sustained-load check, so CI (or a reviewer) can assert the
// speedup and SLO compliance without parsing the table.
type benchBatchResult struct {
	Workload   string  `json:"workload"`
	Requests   int     `json:"requests"`
	GPUs       int     `json:"gpus"`
	BatchAlpha float64 `json:"batch_alpha"`
	SLOMS      float64 `json:"slo_ms"`

	Sequential benchBatchArm `json:"sequential"`
	Batched    benchBatchArm `json:"batched"`
	Speedup    float64       `json:"speedup"`

	Sustained benchBatchSustained `json:"sustained"`
}

type benchBatchArm struct {
	BatchCap      int     `json:"batch_cap"`
	ThroughputRPS float64 `json:"throughput_rps"`
	DrainMS       float64 `json:"drain_ms"`
	MeanBatch     float64 `json:"mean_batch,omitempty"`
}

type benchBatchSustained struct {
	RateRPS   float64 `json:"rate_rps"`
	P99MS     float64 `json:"p99_ms"`
	WithinSLO bool    `json:"within_slo"`
}

// uniformLengths samples sequence lengths uniformly over [1, max] — the
// Fig. 9 workload's length recipe.
type uniformLengths struct{ max int }

func (u uniformLengths) SampleLength(rng *rand.Rand, _ time.Duration) int {
	return 1 + rng.Intn(u.max)
}

// BenchBatch measures the live cluster's dynamic-batching win on the
// Fig. 9 workload (uniform lengths over the model's full range): a burst
// of requests is drained once with batching off and once at batch cap 8,
// and the sustained phase then drives the batched cluster at 1.25x the
// sequential arm's measured throughput to check p99 stays within the SLO.
// Results are printed and written to BENCH_batch.json.
//
// The batch-cost alpha is set to 0.3 — the marginal batch cost calibrated
// against GPU-profiled batch scaling for encoder models, where batch 8
// runs at ~3.1x batch-1 latency (throughput 2.6x) — rather than the
// model's conservative 0.5 default.
func BenchBatch(w io.Writer, opt Options) error {
	const (
		gpus       = 8
		slo        = 150 * time.Millisecond
		batchAlpha = 0.3
	)
	requests := 1600
	sustainDur := 3 * time.Second
	if opt.Full {
		requests = 6400
		sustainDur = 8 * time.Second
	}
	batchCap := opt.BatchSize
	if batchCap <= 1 {
		batchCap = 8
	}

	lm := model.BertBase()
	if err := lm.SetBatchAlpha(batchAlpha); err != nil {
		return err
	}
	p, err := profiler.StaticProfile(lm, lm.Arch().RuntimeLengths(), slo)
	if err != nil {
		return err
	}
	factory := func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
		return dispatch.NewRequestScheduler(ml)
	}

	// Allocate the GPUs for the uniform length mix instead of evenly:
	// uniform lengths put the same request share in every bin, but the
	// long bins cost several times more per request.
	rng := rand.New(rand.NewSource(opt.Seed))
	lengths := make([]int, requests)
	for i := range lengths {
		lengths[i] = 1 + rng.Intn(lm.Arch().MaxLength)
	}
	q := make([]float64, len(p.Runtimes))
	for _, l := range lengths {
		idx, ok := p.IdealRuntime(l)
		if !ok {
			continue
		}
		q[idx]++
	}
	// Normalize counts to requests per SLO window at a nominal rate that
	// keeps the solver in its subscribed regime.
	for i := range q {
		q[i] = q[i] / float64(requests) * 1000 * slo.Seconds()
	}
	solver, err := allocator.NewSolver(p)
	if err != nil {
		return err
	}
	al, err := solver.Allocate(gpus, q)
	if err != nil {
		return err
	}

	drain := func(maxBatch int, rec *obs.Recorder) (time.Duration, error) {
		cl, err := cluster.New(cluster.Config{
			Profile:           p,
			InitialAllocation: al.N,
			Dispatcher:        factory,
			Overhead:          -1,
			MaxBatch:          maxBatch,
			BatchDelay:        opt.BatchDelay,
			Observer:          rec,
		})
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		var wg sync.WaitGroup
		errs := make(chan error, requests)
		start := time.Now()
		for _, l := range lengths {
			wg.Add(1)
			go func(length int) {
				defer wg.Done()
				if _, err := cl.SubmitCtx(context.Background(), cluster.Request{Length: length}); err != nil {
					errs <- err
				}
			}(l)
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errs:
			return 0, fmt.Errorf("burst submit: %w", err)
		default:
		}
		return elapsed, nil
	}

	seqDrain, err := drain(1, nil)
	if err != nil {
		return err
	}
	rec := obs.NewRecorder(len(p.Runtimes))
	batDrain, err := drain(batchCap, rec)
	if err != nil {
		return err
	}
	seqRPS := float64(requests) / seqDrain.Seconds()
	batRPS := float64(requests) / batDrain.Seconds()
	speedup := batRPS / seqRPS
	meanBatch := 0.0
	if rec.Batches() > 0 {
		meanBatch = float64(rec.BatchedRequests()) / float64(rec.Batches())
	}

	// Sustained phase: Poisson arrivals at 1.25x the sequential arm's
	// measured throughput through the batched cluster — a load the
	// sequential workers cannot serve at all, which batching must serve
	// with p99 inside the SLO.
	sustainRate := 1.25 * seqRPS
	tr, err := trace.Generate(trace.Config{
		Seed:     opt.Seed + 1,
		Duration: sustainDur,
		Arrivals: trace.Poisson{Rate: sustainRate},
		Lengths:  uniformLengths{max: lm.Arch().MaxLength},
	})
	if err != nil {
		return err
	}
	cl, err := cluster.New(cluster.Config{
		Profile:           p,
		InitialAllocation: al.N,
		Dispatcher:        factory,
		Overhead:          -1,
		MaxBatch:          batchCap,
		BatchDelay:        opt.BatchDelay,
	})
	if err != nil {
		return err
	}
	pr, err := cl.Replay(tr)
	cl.Close()
	if err != nil {
		return err
	}
	p99 := pr.Latency.Percentile(0.99)

	res := benchBatchResult{
		Workload:   "fig9-uniform-burst",
		Requests:   requests,
		GPUs:       gpus,
		BatchAlpha: batchAlpha,
		SLOMS:      float64(slo) / float64(time.Millisecond),
		Sequential: benchBatchArm{
			BatchCap:      1,
			ThroughputRPS: seqRPS,
			DrainMS:       float64(seqDrain) / float64(time.Millisecond),
		},
		Batched: benchBatchArm{
			BatchCap:      batchCap,
			ThroughputRPS: batRPS,
			DrainMS:       float64(batDrain) / float64(time.Millisecond),
			MeanBatch:     meanBatch,
		},
		Speedup: speedup,
		Sustained: benchBatchSustained{
			RateRPS:   sustainRate,
			P99MS:     float64(p99) / float64(time.Millisecond),
			WithinSLO: p99 <= slo,
		},
	}

	tw := newTab(w)
	fmt.Fprintln(tw, "arm\tbatch cap\tthroughput(req/s)\tdrain(ms)\tmean batch")
	fmt.Fprintf(tw, "sequential\t1\t%.0f\t%.1f\t-\n", seqRPS, res.Sequential.DrainMS)
	fmt.Fprintf(tw, "batched\t%d\t%.0f\t%.1f\t%.2f\n", batchCap, batRPS, res.Batched.DrainMS, meanBatch)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "speedup %.2fx; sustained %.0f req/s p99 %.1f ms (SLO %.0f ms, within=%v)\n",
		speedup, sustainRate, res.Sustained.P99MS, res.SLOMS, res.Sustained.WithinSLO)

	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_batch.json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote BENCH_batch.json")
	return nil
}
