package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/capplan"
	"repro/internal/fed"
	"repro/internal/figures"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/units"
)

var update = flag.Bool("update", false, "rewrite inputs.golden from the current input generators")

// pinnedSeeds are the seeds inputs.golden pins for every workload.
const pinnedSeeds = 64

func TestInputsPinned(t *testing.T) {
	var lines []string
	for _, w := range workloads {
		for seed := int64(0); seed < pinnedSeeds; seed++ {
			in, err := w.setup(seed, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			lines = append(lines, fmt.Sprintf("%s %d %s", w.name, seed, in.inputs()))
		}
	}
	if *update {
		body := "# workload seed input-digest (go test -run TestInputsPinned -update)\n" + strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile("inputs.golden", []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	pins, err := pinnedInputs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pins) != len(lines) {
		t.Fatalf("inputs.golden pins %d inputs, want %d", len(pins), len(lines))
	}
	for _, l := range lines {
		f := strings.Fields(l)
		if got, want := f[2], pins[f[0]+" "+f[1]]; got != want {
			t.Errorf("%s seed %s: inputs %s, pinned %s", f[0], f[1], got, want)
		}
	}
}

func TestCheckPinnedRejectsDrift(t *testing.T) {
	if err := checkPinned("backlog", 1, "0000000000000000"); err == nil || !strings.Contains(err.Error(), "input drift") {
		t.Fatalf("drifted digest accepted: %v", err)
	}
	if err := checkPinned("backlog", 1<<40, "0000000000000000"); err != nil {
		t.Fatalf("unpinned seed rejected: %v", err)
	}
}

func TestWrappersForward(t *testing.T) {
	tr := newTracer()
	for _, backfill := range []bool{false, true} {
		for name, p := range sched.Policies() {
			plain := (*tracer)(nil).policy(p, backfill)
			wrapped := tr.policy(p, backfill)
			if wrapped.Name() != plain.Name() || wrapped.DVFS() != plain.DVFS() {
				t.Errorf("%s backfill=%v: wrapper reads %q/%v, policy %q/%v",
					name, backfill, wrapped.Name(), wrapped.DVFS(), plain.Name(), plain.DVFS())
			}
		}
	}
	for name, mk := range fed.SplitPolicies() {
		s := mk()
		w := tr.wrapSplit(s)
		if w.Name() != s.Name() || w.Static() != s.Static() {
			t.Errorf("split %s: wrapper reads %q/%v", name, w.Name(), w.Static())
		}
	}
	for name, mk := range fed.RoutePolicies() {
		r := mk()
		if w := tr.wrapRoute(r); w.Name() != r.Name() {
			t.Errorf("route %s: wrapper reads %q", name, w.Name())
		}
	}
	mem := telemetry.NewMemorySink()
	sink := tr.wrapSink(mem)
	if err := sink.Write(telemetry.Event{Kind: telemetry.EvArrive, Job: 7}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if evs := mem.Events(); len(evs) != 1 || evs[0].Job != 7 || tr.sink.calls != 1 {
		t.Fatalf("sink wrapper forwarded %v, counted %d", evs, tr.sink.calls)
	}
}

// tracedOnce runs a workload untraced and then traced, through one
// session, so the traced outputs are checked against the untraced
// ones, and returns the traced run's layer metrics.
func tracedOnce(t *testing.T, w workload) map[string]float64 {
	t.Helper()
	s := &session{w: w, seed: 3}
	in, err := s.setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.runOnce(in); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	in, err = s.setup(tr)
	if err != nil {
		t.Fatal(err)
	}
	it, err := s.runOnce(in)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	m := layerMetrics(tr, it)
	listed := map[string]bool{}
	for _, l := range perLayer {
		listed[l.name] = true
	}
	for name := range m {
		if !listed[name] {
			t.Errorf("%s: layer metric %s is not in perLayer, so it is never reported", w.name, name)
		}
	}
	kind := layerKind(tr, it)
	wall := m["trace.wall_s"]
	sum := m["trace.other_s"]
	for _, name := range selfLayers[kind] {
		if m[name] < 0 {
			t.Errorf("%s: self time %s = %g < 0", w.name, name, m[name])
		}
		sum += m[name]
	}
	if m["trace.other_s"] < 0 {
		t.Errorf("%s: unaccounted time %g < 0", w.name, m["trace.other_s"])
	}
	if math.Abs(sum-wall) > 1e-9*wall {
		t.Errorf("%s: self times + other = %g, traced wall %g", w.name, sum, wall)
	}
	return m
}

// TestLayerSeparation checks that each workload loads the layers it
// was chosen for: admission dominates backlog but not stream, only
// stream writes telemetry, only fed negotiates budget splits.
func TestLayerSeparation(t *testing.T) {
	for _, w := range workloads {
		if w.name == "figures" && testing.Short() {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			m := tracedOnce(t, w)
			wall := m["trace.wall_s"]
			admit := m["sched.admit.policy_s"] + m["sched.admit.framing_s"]
			switch w.name {
			case "backlog":
				if admit <= wall/2 {
					t.Errorf("admission %.3fs is not most of the %.3fs wall", admit, wall)
				}
			case "stream":
				if admit >= wall/2 {
					t.Errorf("admission %.3fs is not a minority of the %.3fs wall", admit, wall)
				}
			}
			if sink := m["telemetry.sink_s"]; (sink > 0) != (w.name == "stream") {
				t.Errorf("telemetry.sink_s = %g", sink)
			}
			if calls := m["fed.split.calls"]; (calls > 0) != (w.name == "fed") {
				t.Errorf("fed.split.calls = %g", calls)
			}
			if w.name == "figures" && (m["figures.fig4_s"] <= 0 || m["figures.measured_s"] < m["figures.fig4_s"]) {
				t.Errorf("figure times: measured %g, fig4 %g", m["figures.measured_s"], m["figures.fig4_s"])
			}
		})
	}
}

func TestCheckScheduleCatchesEnergyLeak(t *testing.T) {
	in, err := setupBacklog(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := in.(*schedRun)
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	if err := checkSchedule(r.res, len(r.jobs)); err != nil {
		t.Fatalf("healthy schedule rejected: %v", err)
	}
	leak := r.res
	leak.ParkedEnergy *= 1.001
	if err := checkSchedule(leak, len(r.jobs)); err == nil {
		t.Error("energy leak accepted")
	}
	if err := checkSchedule(r.res, len(r.jobs)+1); err == nil {
		t.Error("missing job accepted")
	}
	viol := r.res
	viol.CapViolations = 1
	if err := checkSchedule(viol, len(r.jobs)); err == nil {
		t.Error("cap violation accepted")
	}
}

func TestCheckBudget(t *testing.T) {
	budget, err := capplan.ParsePlan("0:1000,10:800")
	if err != nil {
		t.Fatal(err)
	}
	site := func(plan string) fed.SiteResult {
		return fed.SiteResult{Site: plan, Result: sched.Result{Plan: plan}}
	}
	ok := fed.Result{Sites: []fed.SiteResult{site("0:500,10:400"), site("0:500,10:400")}}
	if err := checkBudget(budget, ok); err != nil {
		t.Fatalf("fitting split rejected: %v", err)
	}
	over := fed.Result{Sites: []fed.SiteResult{site("0:500,10:400"), site("0:500,5:500")}}
	if err := checkBudget(budget, over); err == nil {
		t.Error("oversubscribed split accepted")
	}
}

func TestFiguresRejectEmptyCSV(t *testing.T) {
	r := &figuresRun{
		gens: []figures.Generator{{ID: "x"}},
		figs: []figures.Figure{{ID: "x", CSV: "\n"}},
	}
	if _, err := r.assess(); err == nil {
		t.Fatal("empty figure CSV accepted")
	}
}

func TestStats(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max quantile = %g", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	var lx, ly []float64
	for d := 1.0; d <= 64; d *= 2 {
		lx = append(lx, math.Log(d))
		ly = append(ly, math.Log(3*d*d))
	}
	if got := slope(lx, ly); math.Abs(got-2) > 1e-12 {
		t.Errorf("slope of a square law = %g", got)
	}
}

func TestDepthExponent(t *testing.T) {
	// Four jobs arrive at t=0 and start at 1, 2, 3, 4: the queue is
	// 4, 3, 2, 1 deep at t = 0, 1, 2, 3, and a pass costs depth² µs.
	var jobs []sched.JobResult
	var passes []pass
	for i := 1; i <= 4; i++ {
		jr := sched.JobResult{State: sched.Done}
		jr.Start = units.Seconds(i)
		jobs = append(jobs, jr)
		depth := 5 - i
		passes = append(passes, pass{at: units.Seconds(i - 1), dur: time.Duration(depth*depth) * time.Microsecond})
	}
	if got := depthExponent(passes, jobs); math.Abs(got-2) > 1e-9 {
		t.Fatalf("depth exponent = %g, want 2", got)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "backlog", "--trace", "2"},
		{"--workload", "backlog", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
