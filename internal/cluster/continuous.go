package cluster

import (
	"runtime"
	"time"

	"arlo/internal/batcher"
	"arlo/internal/obs"
	"arlo/internal/profiler"
	"arlo/internal/tenant"
)

// The worker loop. Every instance runs one goroutine, runWorker, whatever
// the batching mode: continuous (iteration-level) batching is the general
// form, and the other two modes are restrictions of it, following the
// slice-level view in which run-to-completion and per-iteration batching
// are the two extreme slice lengths of one scheduler.
//
// One step executes the resident slots as a single emulated kernel. The
// loop owns the request lifecycle once for every mode: admission through
// the batch former, the per-member pending -> running CAS, the sweep of
// abandoned members, emulation, the crash requeue of queued and in-flight
// members, and delivery. The modes differ only in how a step is priced and
// which members it retires:
//
//   - sequential (B_i = 1): one request per step, priced at its own cost;
//   - run-to-completion (B_i > 1): the step is one batched kernel priced at
//     Runtime.BatchCostOf, plus the decode tail up to the longest output
//     (GenBatchCostOf) for generative members; it retires every member;
//   - continuous: the step prefills the sequences admitted this round and
//     advances every resident sequence by one decode token, priced at
//     Runtime.BatchCostOf(new) + Runtime.DecodeStepCost(resident); it
//     retires only the sequences that emitted their last token, whose
//     slots are open to the next queued request on the very next step.
//
// Admission: with every slot empty the worker blocks in the former's
// windowed Next (the SLO-aware collection window shapes the first step).
// Only continuous batching admits mid-flight: with sequences resident it
// tops up free slots through the non-blocking Poll, since decode steps are
// never delayed to wait for followers.
//
// Lifecycle semantics per member, audited by the chaos harness:
//
//   - cancellation while queued: a lost pending -> running CAS drops only
//     that member;
//   - cancellation while running: the submitter's running -> abandoned CAS
//     is seen by the per-step sweep, which frees the slot instead of
//     computing for nobody (a member abandoned mid-kernel is recycled at
//     delivery instead);
//   - crash: FailInstance sets w.dead and closes w.kill before closing the
//     channel. The in-flight kernel is interrupted and every resident
//     member restarts from scratch through the failover demotion path
//     (partial generations are lost, as on a real GPU); queued work drains
//     through the same path instead of executing.

// slot is one occupied execution slot: a request the worker has admitted
// and not yet retired.
type slot struct {
	j *job
	// remain counts decode steps still owed after the prefill step. It is
	// 0 outside continuous batching, where one kernel covers the whole
	// generation.
	remain int
	// ctx is the current context length: prompt plus generated tokens.
	ctx int
	// prefilled marks members past their first step.
	prefilled bool
	// admitted is the wall-clock start of the member's first step;
	// batchID and batchSize snapshot that step for span correlation.
	admitted  time.Time
	batchID   int64
	batchSize int
}

// spinGuard is how much of each emulated execution is busy-waited instead
// of slept: time.Sleep overshoots by OS-timer granularity, which at
// millisecond kernel times would distort tail latencies, so the final
// stretch spins to the deadline.
const spinGuard = 200 * time.Microsecond

// runWorker is the one worker loop (see the file comment). Completion
// accounting is lock-free: an atomic decrement on the instance.
func (c *Cluster) runWorker(w *worker, rt profiler.Runtime) {
	defer c.wg.Done()
	// The reusable sleep timer starts stopped; emulate arms it per step.
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	slots := c.batchCapFor(rt)
	// A sequential worker's steps are not batches: it records none and its
	// spans carry no batch fields.
	batched := c.continuous || slots > 1
	former := c.newFormer(w, rt, slots)

	var (
		active        []slot
		incoming      []*job
		newLens, ctxs []int // prompts prefilled and contexts decoded this step
		outs          []int // output budgets of the members prefilled this step
		closed        bool
	)
	for {
		// Admission. Slots stay resident across steps only under continuous
		// batching: the other modes retire every member each step.
		incoming = incoming[:0]
		if len(active) == 0 {
			if closed {
				return
			}
			var ok bool
			if incoming, ok = former.Next(incoming); !ok {
				return
			}
		} else if free := slots - len(active); free > 0 && !closed {
			var open bool
			incoming, open = former.Poll(incoming, free)
			closed = !open
		}

		if w.dead.Load() {
			// Crashed: requeue instead of executing. Queued admissions
			// re-enter dispatch from their queued state, residents from
			// in-flight; the loop keeps draining until the channel closes.
			for _, j := range incoming {
				c.ml.OnComplete(w.inst)
				if j.state.Load() == jobCancelled {
					jobPool.Put(j)
					continue
				}
				c.redispatch(j, obs.RequeueQueued)
			}
			active = c.requeueInflight(w, active)
			continue
		}

		// Promote admissions; a lost CAS is a cancellation while queued.
		for _, j := range incoming {
			if !j.state.CompareAndSwap(jobPending, jobRunning) {
				c.ml.OnComplete(w.inst)
				jobPool.Put(j)
				continue
			}
			s := slot{j: j, ctx: j.length}
			if c.continuous && j.maxNew > 1 {
				s.remain = j.maxNew - 1
			}
			active = append(active, s)
		}
		// Sweep abandoned members: the slot frees now rather than
		// computing tokens nobody will read.
		for i := 0; i < len(active); {
			if active[i].j.state.Load() == jobAbandoned {
				c.ml.OnComplete(w.inst)
				jobPool.Put(active[i].j)
				active[i] = active[len(active)-1]
				active = active[:len(active)-1]
				continue
			}
			i++
		}
		if len(active) == 0 {
			continue
		}

		// Price the step: prefill the newcomers, decode the residents.
		newLens, ctxs, outs = newLens[:0], ctxs[:0], outs[:0]
		maxOut := 1
		for i := range active {
			if active[i].prefilled {
				ctxs = append(ctxs, active[i].ctx)
				continue
			}
			newLens = append(newLens, active[i].ctx)
			out := max(active[i].j.maxNew, 1)
			outs = append(outs, out)
			maxOut = max(maxOut, out)
		}
		prefill := rt.BatchCostOf(newLens)
		modeled := prefill + rt.DecodeStepCost(ctxs)
		if !c.continuous && maxOut > 1 {
			// Run-to-completion generative semantics: every slot stays held
			// until the longest output finishes — the baseline continuous
			// batching is benchmarked against.
			modeled += rt.DecodeTailCost(newLens, outs)
		}
		var (
			batchID  int64
			formWait time.Duration
			size     = len(active)
		)
		if batched {
			batchID = c.batchSeq.Add(1)
			c.obsRec.Load().RecordBatch(rt.Index, size)
			if !c.continuous {
				formWait = time.Duration(float64(former.FormedIn()) / c.scale)
			}
		}
		start := time.Now()
		cost := time.Duration(float64(modeled) * c.scale * w.slowFactor())
		if c.emulate(w, timer, start, cost) {
			// Killed mid-kernel: every resident computation is lost.
			active = c.requeueInflight(w, active)
			continue
		}
		end := time.Now()
		// The first token lands when the prefill ends: the whole step under
		// continuous batching, the modeled prefill share of the one kernel
		// otherwise.
		firstTk := prefill
		if c.continuous {
			firstTk = time.Duration(float64(end.Sub(start)) / c.scale)
		}

		// Retire: newcomers took their first token from this step,
		// residents one more; finished members leave and are delivered.
		for i := 0; i < len(active); {
			s := &active[i]
			j := s.j
			if s.prefilled {
				s.ctx++
				s.remain--
			} else {
				s.prefilled = true
				s.admitted = start
				s.batchID, s.batchSize = batchID, size
				j.wait = time.Duration(float64(start.Sub(j.started)) / c.scale)
				if j.maxNew >= 1 {
					j.ttft = j.wait + firstTk
				}
			}
			if s.remain > 0 {
				i++
				continue
			}
			c.ml.OnComplete(w.inst)
			j.exec = time.Duration(float64(end.Sub(s.admitted)) / c.scale)
			j.formWait = formWait
			if batched {
				j.batchID, j.batchSize = s.batchID, s.batchSize
			}
			if j.maxNew >= 1 {
				j.outTokens = j.maxNew
			}
			// Report in modeled time: un-scale the measured wall time so a
			// compressed run still yields model-scale latencies.
			lat := time.Duration(float64(end.Sub(j.started)) / c.scale)
			if j.state.CompareAndSwap(jobRunning, jobDone) {
				j.done <- lat + c.overhead
			} else {
				// Abandoned mid-kernel: the submitter is gone.
				jobPool.Put(j)
			}
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
		}
	}
}

// newFormer builds the worker's batch former for B_i = slots. A member must
// keep enough deadline slack at admission for one full-width kernel, plus
// its expected decode residency under continuous batching. SLO-class
// windows shape only run-to-completion batches: batch-class members may
// stretch the window up to MaxWindowFactor x the configured delay,
// interactive members shrink it (the per-member Window cap enforces each
// class's bound). At B_i = 1 the former hands over one job at a time and
// never waits.
func (c *Cluster) newFormer(w *worker, rt profiler.Runtime, slots int) *batcher.Former[*job] {
	est := rt.BatchDrainTime(slots, slots)
	maxDelay := time.Duration(float64(c.batchDelay) * c.scale)
	classWindows := !c.continuous && c.tenants != nil
	if c.continuous {
		est += time.Duration(float64(rt.DecodeStepUniform(slots, rt.MaxLength)) * (c.meanOut - 1))
	}
	if classWindows {
		maxDelay = time.Duration(float64(maxDelay) * tenant.MaxWindowFactor)
	}
	execEstimate := time.Duration(float64(est) * c.scale)
	f := &batcher.Former[*job]{
		Source: w.ch,
		Policy: batcher.Policy{MaxSize: slots, MaxDelay: maxDelay},
		Deadline: func(j *job) (time.Time, bool) {
			if j.deadline.IsZero() {
				return time.Time{}, false
			}
			return j.deadline.Add(-execEstimate), true
		},
		Interrupt: w.kill,
	}
	if classWindows {
		f.Window = func(j *job) (time.Duration, bool) { return j.window, j.window > 0 }
	}
	return f
}

// requeueInflight restarts every resident member through the failover path
// after a crash, unless its submitter abandoned it concurrently, and
// returns the emptied slot list.
func (c *Cluster) requeueInflight(w *worker, active []slot) []slot {
	for i := range active {
		j := active[i].j
		c.ml.OnComplete(w.inst)
		if j.state.CompareAndSwap(jobRunning, jobPending) {
			c.redispatch(j, obs.RequeueInflight)
		} else {
			jobPool.Put(j)
		}
	}
	return active[:0]
}

// emulate executes one kernel of the given wall-clock cost: sleep to
// within spinGuard of the deadline, then spin out the residue. Returns
// true when the worker was killed mid-kernel (the computation is lost, as
// on a real GPU).
func (c *Cluster) emulate(w *worker, timer *time.Timer, start time.Time, cost time.Duration) bool {
	deadline := start.Add(cost)
	if cost > spinGuard {
		timer.Reset(cost - spinGuard)
		select {
		case <-timer.C:
		case <-w.kill:
			if !timer.Stop() {
				<-timer.C
			}
			return true
		}
	}
	for time.Now().Before(deadline) {
		// Busy-wait the residue for sub-millisecond accuracy, yielding
		// each pass: on a single-CPU host a long batched kernel would
		// otherwise starve the other workers' batch formers (and the
		// submitters feeding them) for its whole spin. The dead check
		// keeps crash interruption bounded even for kernels short enough
		// to skip the sleep.
		if w.dead.Load() {
			return true
		}
		runtime.Gosched()
	}
	return false
}
