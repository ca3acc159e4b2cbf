package sched

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/machine"
	"repro/internal/units"
)

// Policy decides which queued jobs start, and at which (pool, p, f)
// operating points, whenever cluster capacity changes. Policies are
// stateless; everything they may inspect or do flows through the
// AdmitContext.
type Policy interface {
	// Name labels the policy in reports.
	Name() string
	// DVFS reports whether the runtime governor may retune this
	// policy's jobs after admission.
	DVFS() bool
	// Admit inspects ctx.Pending() and calls ctx.Admit for every job to
	// start now. The context tracks remaining per-pool ranks and
	// headroom as admissions accumulate.
	Admit(ctx *AdmitContext)
}

// AdmitContext is the view of the cluster a Policy decides against, plus
// the mutation point (Admit) through which decisions are returned.
type AdmitContext struct {
	s   *Scheduler
	now units.Seconds

	free     []int // per-pool free ranks, indexed like Pools()
	headroom units.Watts
	queue    []Job
	admitted []admission
	taken    map[int]bool
	relaxed  bool

	// only restricts Pending to one job ID — how the Backfill wrapper
	// gives the queue head an exclusive, unconstrained admission shot.
	only *int
	// rsvs constrain admissions to ones that neither delay the reserved
	// start of any blocked, reserved job nor eat its reserved per-pool
	// ranks or watts.
	rsvs []*reservation
	// shadow marks a hypothetical context used to probe a policy at a
	// future cluster state (backfill.go); shadow passes never touch the
	// scheduler's counters.
	shadow bool
	// bypasses counts admissions in this pass that jumped an
	// earlier-arrived waiter.
	bypasses int
}

type admission struct {
	jobID      int
	cand       Candidate
	backfilled bool
}

// Pools returns the platform's node pools in rank order — the pool
// indices every Candidate and per-pool accessor refer to.
func (c *AdmitContext) Pools() []machine.NodePool { return c.s.cfg.Platform.Pools }

// NumPools returns how many node pools the platform has.
func (c *AdmitContext) NumPools() int { return len(c.s.pools) }

// PoolSpec returns the node-type spec of pool i.
func (c *AdmitContext) PoolSpec(i int) machine.Spec { return c.s.pools[i].spec }

// PoolSize returns the provisioned rank count of pool i.
func (c *AdmitContext) PoolSize(i int) int { return c.s.pools[i].size }

// SpecOf returns the node-type spec hosting a global rank.
func (c *AdmitContext) SpecOf(rank int) machine.Spec { return c.s.cl.SpecOf(rank) }

// Now returns the current virtual time.
func (c *AdmitContext) Now() units.Seconds { return c.now }

// Cap returns the cluster power budget in force at the context's time
// (constant, or the plan window containing Now).
func (c *AdmitContext) Cap() units.Watts { return c.s.capAt(c.now) }

// TotalRanks returns the provisioned cluster size over all pools.
func (c *AdmitContext) TotalRanks() int { return c.s.cl.Ranks() }

// FreeRanks returns the ranks not yet claimed in any pool, including by
// admissions already made through this context.
func (c *AdmitContext) FreeRanks() int {
	n := 0
	for _, f := range c.free {
		n += f
	}
	return n
}

// FreeRanksIn returns pool i's unclaimed ranks, including admissions
// already made through this context.
func (c *AdmitContext) FreeRanksIn(i int) int { return c.free[i] }

// Headroom returns the power still available under the cap after the
// draws of running jobs and of admissions already made here.
func (c *AdmitContext) Headroom() units.Watts { return c.headroom }

// Pending returns the arrived, waiting jobs in arrival order, minus
// those already admitted through this context.
func (c *AdmitContext) Pending() []Job {
	out := make([]Job, 0, len(c.queue))
	for _, j := range c.queue {
		if c.taken[j.ID] {
			continue
		}
		if c.only != nil && *c.only != j.ID {
			continue
		}
		out = append(out, j)
	}
	return out
}

// head returns the oldest pending job (arrival order; same-time
// arrivals keep submission order) — the job EASY-style backfill
// protects with a reservation.
func (c *AdmitContext) head() (Job, bool) {
	for _, j := range c.queue {
		if !c.taken[j.ID] {
			return j, true
		}
	}
	return Job{}, false
}

// Best searches every pool's width range × DVFS ladder for the best
// operating point under obj whose marginal power cost fits budget
// (admission.go documents the cost model, the performance-slack rule,
// deadline preference, the min-over-lifetime rule under a cap
// timeline, and the pool scan order). While backfill reservations are
// active, only points they all permit are considered. ok is false when
// the job should wait.
func (c *AdmitContext) Best(j Job, budget units.Watts, obj analysis.Objective) (Candidate, bool) {
	return c.s.bestCandidate(j, c.free, budget, obj, c.now, c.relaxed, c.rsvs)
}

// At prices one explicit (pool, p, f) point for the job; ok is false
// when the point is invalid, needs more ranks than the pool has free,
// exceeds the context's remaining headroom (narrowed, under a cap
// timeline, to the minimum budget window the job would live through),
// or would eat an active backfill reservation.
func (c *AdmitContext) At(j Job, pool, p int, f units.Hertz) (Candidate, bool) {
	if pool < 0 || pool >= len(c.free) || p < 1 || p > c.free[pool] {
		return Candidate{}, false
	}
	cand, ok := c.s.candidateAt(j, pool, p, f)
	if !ok || cand.Cost > c.s.budgetOverLifetime(c.now, c.headroom, cand.Tp) {
		return Candidate{}, false
	}
	if !permitted(c.rsvs, j.ID, c.now, cand) {
		return Candidate{}, false
	}
	return cand, true
}

// Admit commits the job at the candidate point, deducting its ranks
// from the candidate's pool and its power from the context (and, for
// jobs predicted to outlive an active reservation, from the
// reservation's spare capacity). Admitting a job twice, or beyond the
// free capacity, panics: policies are in-package and this is a logic
// error.
func (c *AdmitContext) Admit(j Job, cand Candidate) {
	if c.taken[j.ID] {
		panic("sched: job admitted twice in one pass")
	}
	if cand.P > c.free[cand.Pool] || cand.Cost > c.headroom {
		panic("sched: admission exceeds free ranks or headroom")
	}
	backfilled := false
	for _, rsv := range c.rsvs {
		if j.ID == rsv.jobID {
			continue
		}
		backfilled = true
		if c.now+cand.Tp > rsv.at && c.now < rsv.at+rsv.dur {
			if cand.P > rsv.extraRanks[cand.Pool] || cand.Cost > rsv.extraWatts {
				panic("sched: backfill admission would eat a blocked job's reservation")
			}
			// Shadow probes share the live reservation list; only real
			// admissions spend its spare capacity.
			if !c.shadow {
				rsv.extraRanks[cand.Pool] -= cand.P
				rsv.extraWatts -= cand.Cost
			}
		}
	}
	if !c.shadow {
		for _, q := range c.queue {
			if !c.taken[q.ID] && q.ID != j.ID &&
				(q.Arrival < j.Arrival || (q.Arrival == j.Arrival && q.ID < j.ID)) {
				c.bypasses++
				break
			}
		}
	}
	c.taken[j.ID] = true
	c.free[cand.Pool] -= cand.P
	c.headroom -= cand.Cost
	c.admitted = append(c.admitted, admission{jobID: j.ID, cand: cand, backfilled: backfilled})
}

// byPriority orders jobs for the EE-aware policies: priority descending,
// then arrival, then ID — deterministic for any input permutation.
func byPriority(jobs []Job) []Job {
	out := append([]Job(nil), jobs...)
	sort.SliceStable(out, func(a, b int) bool {
		ja, jb := out[a], out[b]
		if ja.priority() != jb.priority() {
			return ja.priority() > jb.priority()
		}
		if ja.Arrival != jb.Arrival {
			return ja.Arrival < jb.Arrival
		}
		return ja.ID < jb.ID
	})
	return out
}

// --- FIFO + uniform frequency (baseline) ---

type fifoPolicy struct{}

// FIFO is the baseline: jobs start in arrival order at their full
// requested width and each pool's uniform nominal frequency, with
// first-fit backfill past a blocked head. Pools are tried in rank order
// — the lowest free ranks win, which is what a power-oblivious batch
// scheduler with a flat node list does — plus just enough cap awareness
// not to violate the budget outright. No DVFS.
func FIFO() Policy { return fifoPolicy{} }

func (fifoPolicy) Name() string { return "fifo" }
func (fifoPolicy) DVFS() bool   { return false }

func (fifoPolicy) Admit(ctx *AdmitContext) {
	for _, j := range ctx.Pending() {
		for pi := 0; pi < ctx.NumPools(); pi++ {
			p := j.MaxWidth
			if sz := ctx.PoolSize(pi); p > sz {
				p = sz
			}
			if p < j.minWidth() || p > ctx.FreeRanksIn(pi) {
				continue
			}
			if cand, ok := ctx.At(j, pi, p, ctx.PoolSpec(pi).BaseFreq); ok {
				ctx.Admit(j, cand)
				break
			}
		}
	}
}

// --- greedy EE-max ---

type eeMaxPolicy struct{}

// EEMax admits in priority order, each job at the operating point —
// across every pool's grid — maximising predicted iso-energy-efficiency
// within the remaining power headroom and free ranks, so the EE-best
// pool wins each admission; later queue entries backfill whatever the
// earlier ones left.
func EEMax() Policy { return eeMaxPolicy{} }

func (eeMaxPolicy) Name() string { return "ee-max" }
func (eeMaxPolicy) DVFS() bool   { return true }

func (eeMaxPolicy) Admit(ctx *AdmitContext) {
	for _, j := range byPriority(ctx.Pending()) {
		if cand, ok := ctx.Best(j, ctx.Headroom(), analysis.MaxEE); ok {
			ctx.Admit(j, cand)
		}
	}
}

// --- iso-energy-efficiency-aware fair share ---

type fairSharePolicy struct{}

// FairShare divides the available power headroom among the waiting jobs
// in proportion to priority and gives each job the EE-best operating
// point that fits its share — wide high-priority work cannot starve the
// rest of the queue of power the way greedy admission can. A final
// work-conserving pass keeps the cluster busy when every share is too
// thin to start anything.
func FairShare() Policy { return fairSharePolicy{} }

func (fairSharePolicy) Name() string { return "fair-share" }
func (fairSharePolicy) DVFS() bool   { return true }

func (fairSharePolicy) Admit(ctx *AdmitContext) {
	pending := byPriority(ctx.Pending())
	total := 0
	for _, j := range pending {
		total += j.priority()
	}
	if total == 0 {
		return
	}
	whole := ctx.Headroom()
	for _, j := range pending {
		share := units.Watts(float64(whole) * float64(j.priority()) / float64(total))
		if share > ctx.Headroom() {
			share = ctx.Headroom()
		}
		if cand, ok := ctx.Best(j, share, analysis.MaxEE); ok {
			ctx.Admit(j, cand)
		}
	}
	// Work conservation: if the shares stranded everything, start the
	// best single job the full remaining headroom can carry.
	if len(ctx.admitted) == 0 {
		for _, j := range pending {
			if cand, ok := ctx.Best(j, ctx.Headroom(), analysis.MaxEE); ok {
				ctx.Admit(j, cand)
				return
			}
		}
	}
}

// Policies returns the shipped policies keyed by name.
func Policies() map[string]Policy {
	return map[string]Policy{
		"fifo":       FIFO(),
		"ee-max":     EEMax(),
		"fair-share": FairShare(),
	}
}

// PolicyByName resolves a policy name, case-insensitively: a registry
// name from Policies, or "backfill+<name>" for that policy wrapped in
// Backfill — the form Backfill's Name reports, so PolicyByName(p.Name())
// round-trips.
func PolicyByName(name string) (Policy, error) {
	base, wrap := strings.CutPrefix(strings.ToLower(name), "backfill+")
	p, ok := Policies()[base]
	if !ok {
		return nil, fmt.Errorf("unknown policy %q (have fifo, ee-max, fair-share, or backfill+<name>)", name)
	}
	if wrap {
		p = Backfill(p)
	}
	return p, nil
}
