package main

import (
	"sync"
	"time"

	"repro/internal/fed"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// The benchmark measures layers from the outside: every wrapper here
// sits on a public extension point of the program (sched.Policy,
// telemetry.Sink, fed.RoutePolicy, fed.SplitPolicy), times the call it
// forwards and counts it. Wrappers embed the wrapped value, so every
// method they do not time (Name, DVFS, Static) is forwarded unchanged
// and a traced schedule is identical to an untraced one.

// since returns the host time elapsed from t0.
func since(t0 time.Time) time.Duration {
	return time.Since(t0) //lint:wallclock benchmark host timing
}

// now reads the host clock for a span start.
func now() time.Time {
	return time.Now() //lint:wallclock benchmark host timing
}

// pass is one timed policy call: the sim time it ran at, its host
// duration, and whether it claimed ranks.
type pass struct {
	at     units.Seconds
	dur    time.Duration
	useful bool
}

// callStats tallies the calls through one wrapper. Federated sites run
// on their own goroutines and share the configured policy, so every
// update takes the mutex.
type callStats struct {
	mu     sync.Mutex
	calls  int
	busy   time.Duration
	passes []pass // kept only where per-call samples are reported
	keep   bool
}

func (s *callStats) add(p pass) {
	s.mu.Lock()
	s.calls++
	s.busy += p.dur
	if s.keep {
		s.passes = append(s.passes, p)
	}
	s.mu.Unlock()
}

// timedPolicy times every Admit call of the policy it wraps.
type timedPolicy struct {
	sched.Policy
	st *callStats
}

func (p timedPolicy) Admit(ctx *sched.AdmitContext) {
	free := ctx.FreeRanks()
	t0 := now()
	p.Policy.Admit(ctx)
	p.st.add(pass{at: ctx.Now(), dur: since(t0), useful: ctx.FreeRanks() < free})
}

// timedSink times every event write of the sink it wraps.
type timedSink struct {
	telemetry.Sink
	st *callStats
}

func (s timedSink) Write(ev telemetry.Event) error {
	t0 := now()
	err := s.Sink.Write(ev)
	s.st.add(pass{dur: since(t0)})
	return err
}

// timedRoute times every routing decision.
type timedRoute struct {
	fed.RoutePolicy
	st *callStats
}

func (r timedRoute) Pick(ctx *fed.RouteContext) (int, string) {
	t0 := now()
	site, why := r.RoutePolicy.Pick(ctx)
	r.st.add(pass{dur: since(t0)})
	return site, why
}

// timedSplit times the budget divisions made at negotiation barriers
// (States set); divisions at construction time are not negotiations.
type timedSplit struct {
	fed.SplitPolicy
	st *callStats
}

func (s timedSplit) Shares(ctx fed.SplitContext) []float64 {
	t0 := now()
	d := s.SplitPolicy.Shares(ctx)
	if ctx.States != nil {
		s.st.add(pass{dur: since(t0)})
	}
	return d
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

// genTime is one figure generator's host time.
type genTime struct {
	id  string
	dur time.Duration
}

// tracer holds the probes of one traced run. A nil *tracer is an
// untraced run: set-up then wires no wrapper and no obs.Host.
type tracer struct {
	outer, inner callStats // configured policy; ee-max inside Backfill
	sink         callStats
	route, split callStats

	mu    sync.Mutex
	hosts []*obs.Host // one per scheduler

	gens []genTime // figure generators, in run order
}

func newTracer() *tracer {
	tr := &tracer{}
	tr.outer.keep = true
	return tr
}

// policy wraps the configured policy (outer) and, for a Backfill
// wrapper, the policy inside it (inner).
func (tr *tracer) policy(inner sched.Policy, backfill bool) sched.Policy {
	if tr == nil {
		if backfill {
			return sched.Backfill(inner)
		}
		return inner
	}
	p := inner
	if backfill {
		p = sched.Backfill(timedPolicy{Policy: inner, st: &tr.inner})
	}
	return timedPolicy{Policy: p, st: &tr.outer}
}

// host returns a fresh obs.Host registered with the tracer, or nil.
func (tr *tracer) host() *obs.Host {
	if tr == nil {
		return nil
	}
	h := obs.NewHost()
	tr.mu.Lock()
	tr.hosts = append(tr.hosts, h)
	tr.mu.Unlock()
	return h
}

// wrapSink times the sink when tracing.
func (tr *tracer) wrapSink(s telemetry.Sink) telemetry.Sink {
	if tr == nil {
		return s
	}
	return timedSink{Sink: s, st: &tr.sink}
}

func (tr *tracer) wrapRoute(r fed.RoutePolicy) fed.RoutePolicy {
	if tr == nil {
		return r
	}
	return timedRoute{RoutePolicy: r, st: &tr.route}
}

func (tr *tracer) wrapSplit(s fed.SplitPolicy) fed.SplitPolicy {
	if tr == nil {
		return s
	}
	return timedSplit{SplitPolicy: s, st: &tr.split}
}

// runGenerator runs one figure generator, timing it when tracing.
func (tr *tracer) runGenerator(g figures.Generator, o figures.Options) (figures.Figure, error) {
	t0 := now()
	fig, err := g.Run(o)
	if tr != nil {
		tr.gens = append(tr.gens, genTime{id: g.ID, dur: since(t0)})
	}
	return fig, err
}
