package main

import (
	"math"
	"sort"

	"repro/internal/sched"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. Metrics of a layer a workload does not reach read 0.
var perLayer = []struct{ name, unit string }{
	{"sched.admit.passes", "count"},
	{"sched.admit.pass_p50_us", "us"},
	{"sched.admit.pass_p99_us", "us"},
	{"sched.admit.policy_s", "s"},
	{"sched.admit.inner_calls", "count"},
	{"sched.admit.inner_s", "s"},
	{"sched.backfill.self_s", "s"},
	{"sched.admit.framing_s", "s"},
	{"sched.admit.useful_frac", "frac"},
	{"sched.admit.depth_exponent", "slope"},
	{"sched.governor.passes", "count"},
	{"sched.governor_s", "s"},
	{"sched.retunes", "count"},
	{"sched.kills", "count"},
	{"sched.restarts", "count"},
	{"opcache.hits", "count"},
	{"opcache.misses", "count"},
	{"opcache.hit_rate", "frac"},
	{"sim.events", "count"},
	{"sim.heap_max", "count"},
	{"sim.drain_max", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.drain_self_s", "s"},
	{"sim.energy_j", "J"},
	{"sim.makespan_s", "sim_s"},
	{"sim.p95_wait_s", "sim_s"},
	{"telemetry.events", "count"},
	{"telemetry.sink_s", "s"},
	{"telemetry.ns_per_event", "ns"},
	{"telemetry.bytes", "bytes"},
	{"fed.route.picks", "count"},
	{"fed.route_s", "s"},
	{"fed.split.calls", "count"},
	{"fed.split_s", "s"},
	{"fed.site_drain_max_s", "s"},
	{"fed.site_skew", "ratio"},
	{"fed.spills", "count"},
	{"figures.measured_s", "s"},
	{"figures.model_s", "s"},
	{"figures.fig4_s", "s"},
	{"figures.serial_s", "s"},
	{"figures.parallel_eff", "frac"},
	{"trace.wall_s", "s"},
	{"trace.other_s", "s"},
	{"trace.overhead_frac", "frac"},
}

// selfLayers names, per kind of workload, the disjoint self times that
// tile a traced run's wall time; trace.other_s is what they leave.
var selfLayers = map[string][]string{
	"sched":   {"sched.admit.inner_s", "sched.backfill.self_s", "sched.admit.framing_s", "sched.governor_s", "telemetry.sink_s", "sim.drain_self_s"},
	"fed":     {"fed.route_s", "fed.site_drain_max_s"},
	"figures": {"figures.measured_s", "figures.model_s"},
}

// measuredFigures are the generators that simulate NPB runs; the rest
// (Figures 5-9) evaluate the model only.
var measuredFigures = map[string]bool{"2a": true, "2b": true, "3": true, "4": true, "10": true}

// layerKind classifies a traced run by the layers it reached.
func layerKind(tr *tracer, it iteration) string {
	switch {
	case len(tr.gens) > 0:
		return "figures"
	case it.out.sites > 0:
		return "fed"
	default:
		return "sched"
	}
}

// layerMetrics derives every per-layer metric of one traced run.
func layerMetrics(tr *tracer, it iteration) map[string]float64 {
	m := map[string]float64{}
	wall := it.wall.Seconds()
	m["trace.wall_s"] = wall

	// Admission, from the policy wrappers.
	policy := tr.outer.busy.Seconds()
	m["sched.admit.passes"] = float64(tr.outer.calls)
	m["sched.admit.policy_s"] = policy
	m["sched.admit.inner_calls"] = float64(tr.inner.calls)
	m["sched.admit.inner_s"] = tr.inner.busy.Seconds()
	if tr.inner.calls > 0 {
		m["sched.backfill.self_s"] = policy - tr.inner.busy.Seconds()
	}
	if n := len(tr.outer.passes); n > 0 {
		us := make([]float64, n)
		useful := 0
		for i, p := range tr.outer.passes {
			us[i] = float64(p.dur.Nanoseconds()) / 1e3
			if p.useful {
				useful++
			}
		}
		m["sched.admit.pass_p50_us"] = quantile(us, 0.50)
		m["sched.admit.pass_p99_us"] = quantile(us, 0.99)
		m["sched.admit.useful_frac"] = float64(useful) / float64(n)
	}
	if len(it.out.results) == 1 {
		m["sched.admit.depth_exponent"] = depthExponent(tr.outer.passes, it.out.results[0].Jobs)
	}

	// Host phases, kernel and opcache gauges, summed over schedulers.
	var admission, governor, drain float64
	var drains []float64
	var hits, misses uint64
	for _, h := range tr.hosts {
		snap := h.Snapshot()
		for _, p := range snap.Phases {
			switch p.Phase {
			case "admission":
				admission += p.Seconds
			case "governor":
				governor += p.Seconds
				m["sched.governor.passes"] += float64(p.Count)
			case "drain":
				drain += p.Seconds
				drains = append(drains, p.Seconds)
			}
		}
		m["sim.events"] += float64(snap.Kernel.Events)
		m["sim.heap_max"] = math.Max(m["sim.heap_max"], float64(snap.Kernel.HeapMax))
		m["sim.drain_max"] = math.Max(m["sim.drain_max"], float64(snap.Kernel.DrainMax))
		hits += snap.Opcache.Hits
		misses += snap.Opcache.Misses
	}
	m["sched.governor_s"] = governor
	m["opcache.hits"] = float64(hits)
	m["opcache.misses"] = float64(misses)
	if hits+misses > 0 {
		m["opcache.hit_rate"] = float64(hits) / float64(hits+misses)
	}
	if drain > 0 {
		m["sim.events_per_s"] = m["sim.events"] / drain
	}
	sink := tr.sink.busy.Seconds()
	if len(tr.hosts) > 0 {
		m["sched.admit.framing_s"] = admission - policy
		m["sim.drain_self_s"] = drain - admission - governor - sink
	}
	for _, r := range it.out.results {
		m["sched.retunes"] += float64(r.FreqChanges)
		m["sched.kills"] += float64(r.Kills)
		m["sched.restarts"] += float64(r.Restarts)
	}
	m["sim.energy_j"] = it.out.energy
	m["sim.makespan_s"] = it.out.makespan
	m["sim.p95_wait_s"] = it.out.p95Wait

	// Telemetry sink.
	m["telemetry.events"] = float64(tr.sink.calls)
	m["telemetry.sink_s"] = sink
	if tr.sink.calls > 0 {
		m["telemetry.ns_per_event"] = float64(tr.sink.busy.Nanoseconds()) / float64(tr.sink.calls)
	}
	m["telemetry.bytes"] = float64(it.out.sinkOut)

	// Federation.
	m["fed.route.picks"] = float64(tr.route.calls)
	m["fed.route_s"] = tr.route.busy.Seconds()
	m["fed.split.calls"] = float64(tr.split.calls)
	m["fed.split_s"] = tr.split.busy.Seconds()
	m["fed.spills"] = float64(it.out.spills)
	if it.out.sites > 0 && len(drains) > 0 {
		hi, lo := maxOf(drains), minOf(drains)
		m["fed.site_drain_max_s"] = hi
		if lo > 0 {
			m["fed.site_skew"] = hi / lo
		}
	}

	// Figure generators.
	for _, g := range tr.gens {
		if measuredFigures[g.id] {
			m["figures.measured_s"] += g.dur.Seconds()
		} else {
			m["figures.model_s"] += g.dur.Seconds()
		}
		if g.id == "4" {
			m["figures.fig4_s"] = g.dur.Seconds()
		}
	}

	other := wall
	for _, name := range selfLayers[layerKind(tr, it)] {
		other -= m[name]
	}
	m["trace.other_s"] = other
	return m
}

// depthExponent fits log pass time against log queue depth. The depth
// at a pass is rebuilt from the schedule as the completed jobs with
// Arrival ≤ t < Start; passes at depth 0 are left out.
func depthExponent(passes []pass, jobs []sched.JobResult) float64 {
	var arrivals, starts []float64
	for _, j := range jobs {
		if j.State == sched.Done {
			arrivals = append(arrivals, float64(j.Arrival))
			starts = append(starts, float64(j.Start))
		}
	}
	sort.Float64s(arrivals)
	sort.Float64s(starts)
	atOrBefore := func(xs []float64, t float64) int {
		return sort.Search(len(xs), func(i int) bool { return xs[i] > t })
	}
	var xs, ys []float64
	for _, p := range passes {
		t := float64(p.at)
		depth := atOrBefore(arrivals, t) - atOrBefore(starts, t)
		if depth < 1 || p.dur <= 0 {
			continue
		}
		xs = append(xs, math.Log(float64(depth)))
		ys = append(ys, math.Log(float64(p.dur.Nanoseconds())))
	}
	return slope(xs, ys)
}
