package chaos

import (
	"testing"
	"time"
)

// TestConservationManySeedsBatched replays the conservation audit with
// dynamic batching enabled: across seeded runs sweeping the batch cap and
// the collection-window policy, with crashes, slowdowns and client
// cancellations racing batch formation, every submitted request still
// resolves exactly once and the observability books balance. Batch-level
// crash semantics (a killed instance loses its whole in-flight batch) must
// not lose, duplicate or leak any member.
func TestConservationManySeedsBatched(t *testing.T) {
	runBatchedSeeds(t, false)
}

// TestConservationManySeedsIngress runs the batched seed set through the
// ingress rings: requests reach the workers by ring drain and grouped
// placement instead of one SubmitCtx each, and cancellation now also
// races the ring wait. The same audit must hold.
func TestConservationManySeedsIngress(t *testing.T) {
	runBatchedSeeds(t, true)
}

// runBatchedSeeds is the batched sweep, submitting directly or through
// the ingress rings.
func runBatchedSeeds(t *testing.T, ingress bool) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	p := testProfile(t)
	caps := []int{2, 4, 8}
	for seed := 0; seed < seeds; seed++ {
		maxBatch := caps[seed%len(caps)]
		// Alternate greedy formation with the SLO-aware default window so
		// both wait paths face the fault schedule.
		delay := time.Duration(0)
		if seed%2 == 1 {
			delay = -1
		}
		cfg := Config{
			Profile:        p,
			Allocation:     []int{1, 2},
			Trace:          testTrace(t, int64(seed), 150, 200*time.Millisecond),
			TimeScale:      0.02,
			Seed:           int64(seed),
			CancelFraction: 0.2,
			MaxBatch:       maxBatch,
			BatchDelay:     delay,
			Ingress:        ingress,
			Events: []Event{
				{At: 20 * time.Millisecond, Kind: Slow, Runtime: 1, Factor: 3},
				{At: 50 * time.Millisecond, Kind: Fail, Runtime: 1, Downtime: 60 * time.Millisecond},
				{At: 100 * time.Millisecond, Kind: Fail, Runtime: -1, Downtime: 0},
			},
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d (batch %d): %v", seed, maxBatch, err)
		}
		if err := rep.Check(); err != nil {
			t.Fatalf("seed %d (batch %d): %v", seed, maxBatch, err)
		}
		if rep.Submitted != len(cfg.Trace.Requests) {
			t.Fatalf("seed %d: submitted %d of %d trace requests",
				seed, rep.Submitted, len(cfg.Trace.Requests))
		}
	}
}

// TestScriptedBatchCrash pins the batch-level failure semantics: the only
// small-runtime instance is slowed so its queue (and an in-flight batch)
// is deep, then crashed permanently after the trace ends. Every displaced
// member — the whole batch, plus everything queued behind it — must
// re-enter the failover demotion path exactly once: the demotion counter
// from runtime 0 to runtime 1 equals the displaced-work counters, and all
// of it completes on the survivors.
func TestScriptedBatchCrash(t *testing.T) {
	p := testProfile(t)
	rep, err := Run(Config{
		Profile:    p,
		Allocation: []int{1, 2},
		// A short trace that ends before the crash: no post-crash arrival
		// can record a submit-time demotion, so demotions(0->1) counts
		// failover redispatches only.
		Trace:      testTrace(t, 13, 300, 50*time.Millisecond),
		TimeScale:  0.02,
		MaxBatch:   8,
		BatchDelay: -1, // greedy formation: batches fill straight off the queue
		Events: []Event{
			// 50x slowdown stretches the in-flight batched kernel across the
			// crash instant and keeps the rest of the load queued behind it.
			{At: 5 * time.Millisecond, Kind: Slow, Runtime: 0, Factor: 50},
			{At: 60 * time.Millisecond, Kind: Fail, Runtime: 0, Downtime: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	// No cancellations and a single displacement per request: everything
	// submitted must complete.
	if rep.Completed != rep.Submitted {
		t.Errorf("completed %d of %d submitted (unserviceable %d, other %d)",
			rep.Completed, rep.Submitted, rep.Unserviceable, rep.OtherRejected)
	}
	displaced := rep.RequeuesQueued + rep.RequeuesInflight
	if displaced == 0 {
		t.Fatal("crash under a slowed deep queue displaced nothing")
	}
	// Exactly-once redispatch through demotion: every displaced member
	// (queued or mid-batch) demoted 0->1 once, and nothing else recorded a
	// demotion.
	if got := rep.Recorder.Demotions(0, 1); got != displaced {
		t.Errorf("demotions 0->1 = %d, displaced = %d (queued %d, inflight %d); want equal",
			got, displaced, rep.RequeuesQueued, rep.RequeuesInflight)
	}
	if got := rep.FinalAllocation[0]; got != 0 {
		t.Errorf("runtime 0 allocation after permanent crash = %d, want 0", got)
	}
}
