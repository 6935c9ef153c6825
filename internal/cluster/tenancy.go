// Multi-tenant serving support for the live cluster: token-bucket
// admission in front of every submit path, SLO-class policy application,
// and the weighted-fair dispatch pump.
//
// With Config.Tenants unset nothing here runs — admission returns at once
// and jobs go straight to placement, which is what keeps the Fig. 9
// dispatch hot path allocation-free and unchanged. With a registry
// configured, the tenancy steps sit inside the one submit pipeline every
// path (SubmitCtx, SubmitBatch, the ingress rings, Replay) shares:
//
//  1. admit resolves the request's tenant and runs token-bucket admission
//     *before* leasing queue state: a rejected request never touches the
//     multi-level queue, so a bursting tenant cannot trigger λ-congestion
//     demotions for everyone else.
//  2. Admitted jobs, single or grouped, flow through a start-time-fair
//     queue (queue.Fair) drained by a single pump goroutine, so dispatch
//     order interleaves tenants by weight x class bias instead of arrival
//     order: a backlogged tenant's surplus waits behind everyone else's
//     current share rather than ahead of it. The pump places each job
//     through the same route step as a direct submission.
//  3. The tenant's SLO class stamps per-request policy: an implicit
//     deadline for interactive requests and a batching-window factor the
//     run-to-completion batch former honors per member.
package cluster

import (
	"context"
	"errors"
	"time"

	"arlo/internal/dispatch"
	"arlo/internal/obs"
	"arlo/internal/tenant"
)

// ErrRateLimited is the admission-rejection sentinel: the resolved
// tenant's token bucket had insufficient budget. The concrete error is a
// *tenant.RateLimitError carrying the Retry-After hint.
var ErrRateLimited = tenant.ErrRateLimited

// Tenants returns the cluster's tenant registry (nil when multi-tenancy
// is disabled) — the admin API reads and live-updates records through it.
func (c *Cluster) Tenants() *tenant.Registry { return c.tenants }

// admitTenant resolves a request's tenant id and runs token-bucket
// admission for its token cost (input + requested output tokens). With no
// registry it returns (nil, nil) without any work. Allocation-free on
// admission; a rejection allocates only the error.
func (c *Cluster) admitTenant(id string, tokens int) (*tenant.Tenant, error) {
	reg := c.tenants
	if reg == nil {
		return nil, nil
	}
	t := reg.Get(id)
	if ok, retry := t.Admit(tokens); !ok {
		return nil, &tenant.RateLimitError{Tenant: t.ID(), RetryAfter: retry}
	}
	return t, nil
}

// applyTenant stamps tenant policy onto a freshly leased job: the record
// itself (for fair-share accounting and the span label), the class's
// implicit deadline when the submitter brought none, and the class's
// batch-collection window.
func (c *Cluster) applyTenant(j *job, t *tenant.Tenant) {
	if t == nil {
		return
	}
	j.tenant = t
	class := t.Class()
	if j.deadline.IsZero() {
		if d := class.DeadlineDefault(c.cfg.Profile.SLO); d > 0 {
			j.deadline = time.Now().Add(time.Duration(float64(d) * c.scale))
		}
	}
	if c.maxBatch > 1 && c.batchDelay > 0 {
		j.window = time.Duration(float64(c.batchDelay) * class.WindowFactor() * c.scale)
	}
}

// fairEnqueue hands an admitted job to the fair queue in place of direct
// routing. The pump drains it in weighted-fair order.
func (c *Cluster) fairEnqueue(j *job) error {
	t := j.tenant
	weight := t.Weight() * t.Class().PriorityBias()
	cost := float64(j.length + j.maxNew)
	if !c.fairQ.Push(t.ID(), weight, cost, j) {
		return ErrClusterClosed
	}
	return nil
}

// runFairPump is the single dispatch pump of a multi-tenant cluster: it
// pops jobs in weighted-fair order and routes them through the normal
// dispatch path. Transient dispatch failures (congestion, no instances
// mid-recovery) retry against the requeue budget; terminal ones fail the
// job through the done channel exactly like a failover displacement.
// After Close the queue drains — leftover jobs fail with ErrClusterClosed
// so every submitter returns.
func (c *Cluster) runFairPump() {
	defer c.wg.Done()
	for {
		j, ok := c.fairQ.Pop()
		if !ok {
			return
		}
		if j.state.Load() == jobCancelled {
			// The submitter cancelled while the job waited its fair turn; it
			// already returned, so the pump owns (and discards) the job.
			jobPool.Put(j)
			continue
		}
		c.pumpDispatch(j)
	}
}

// pumpDispatch routes one fairly-ordered job, bounded-retrying transients.
func (c *Cluster) pumpDispatch(j *job) {
	// Once route succeeds the job belongs to its worker and submitter — it
	// can complete and be pool-recycled before this returns — so capture
	// the accounting fields while the pump still owns it.
	t := j.tenant
	cost := j.length + j.maxNew
	for attempt := 0; ; attempt++ {
		err := c.route(context.Background(), j)
		if err == nil {
			t.RecordDispatched(cost)
			return
		}
		if errors.Is(err, ErrClusterClosed) || errors.Is(err, dispatch.ErrTooLong) ||
			errors.Is(err, dispatch.ErrNoInstances) || attempt >= c.budget {
			c.failJob(j, err)
			return
		}
		// Congested: back off briefly and retry. This holds the pump (and
		// with it every tenant) for at most budget * redispatchBackoff — a
		// saturated cluster is already not making fair progress.
		time.Sleep(redispatchBackoff)
		if j.state.Load() == jobCancelled {
			jobPool.Put(j)
			return
		}
	}
}

// fairQueueLen reports jobs admitted but not yet routed (0 without a
// registry) — part of the cluster's outstanding count so drain barriers
// see fairly-queued work.
func (c *Cluster) fairQueueLen() int {
	if c.fairQ == nil {
		return 0
	}
	return c.fairQ.Len()
}

// tenantSnapshot renders the registry's books as scrape-time stats with
// dispatch share normalized over cumulative dispatched token cost.
func (c *Cluster) tenantSnapshot() []obs.TenantStat {
	stats := c.tenants.Stats()
	var totalDispatched int64
	for _, s := range stats {
		totalDispatched += s.Dispatched
	}
	out := make([]obs.TenantStat, len(stats))
	for i, s := range stats {
		share := 0.0
		if totalDispatched > 0 {
			share = float64(s.Dispatched) / float64(totalDispatched)
		}
		out[i] = obs.TenantStat{
			Tenant:   s.ID,
			Admitted: s.Admitted,
			Rejected: s.Rejected,
			Share:    share,
		}
	}
	return out
}
