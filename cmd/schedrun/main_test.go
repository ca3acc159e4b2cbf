package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/capplan"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/traceq"
)

// schedrun runs one command line in-process.
func schedrun(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func slurp(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// eventKinds checks that an NDJSON file is line-wise JSON and returns
// the set of its "ev" kinds.
func eventKinds(t *testing.T, path string) map[string]bool {
	t.Helper()
	kinds := map[string]bool{}
	for i, line := range strings.Split(strings.TrimSuffix(slurp(t, path), "\n"), "\n") {
		var ev struct{ Ev string }
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("%s line %d is not JSON: %v\n%s", path, i+1, err, line)
		}
		kinds[ev.Ev] = true
	}
	return kinds
}

const (
	squeeze   = "0:900,1:650,2:900"
	demandCut = "0:2500,0.3:2000,0.6:2500"
	chaosPlan = "fail=0@0.3,repair=0@0.8,emer=1.2-1.8:700,retries=3,ckpt=0.1,restart=0.02"
)

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.csv")
	if err := os.WriteFile(garbage, []byte("not,a\nplan,file\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.csv")
	small := []string{"-jobs", "16", "-ranks", "16", "-cap", "900"}
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"help", []string{"-h"}, 0},
		{"backfill ee-max under a constant cap", append(small, "-policy", "backfill+ee-max"), 0},
		{"mtbf churn via flags drains every job", append(small, "-policy", "backfill+ee-max", "-mtbf", "3", "-mttr", "0.15", "-retries", "8", "-ckpt", "0.1"), 0},
		{"empty trace", []string{"-jobs", "0"}, 0},

		{"unreadable capfile", []string{"-capfile", missing}, 1},
		{"malformed capfile", []string{"-capfile", garbage}, 1},
		{"unreadable faultfile", []string{"-faultfile", missing}, 1},
		{"events in a missing directory", []string{"-policy", "fifo", "-events", filepath.Join(dir, "no", "e.ndjson")}, 1},
		{"cap below the idle floor", []string{"-cap", "100"}, 1},
		{"audit of a job not in the trace", []string{"-jobs", "4", "-policy", "fifo", "-audit", "999"}, 1},

		{"a job is permanently lost", append(small, "-policy", "fifo", "-faults", "fail=0@0.3,retries=0"), 4},

		{"unknown flag", []string{"-nope"}, 2},
		{"negative jobs", []string{"-jobs", "-5"}, 2},
		{"negative cap", []string{"-cap", "-100"}, 2},
		{"NaN cap", []string{"-cap", "NaN"}, 2},
		{"zero repeat", []string{"-repeat", "0"}, 2},
		{"negative interval", []string{"-interval", "-1"}, 2},
		{"zero reserve", []string{"-reserve", "0"}, 2},
		{"capplan with capfile", []string{"-capplan", squeeze, "-capfile", missing}, 2},
		{"cap with capplan", []string{"-cap", "900", "-capplan", squeeze}, 2},
		{"malformed capplan", []string{"-capplan", "nope"}, 2},
		{"capdump without a plan", []string{"-capdump", filepath.Join(dir, "p.csv")}, 2},
		{"capdump with faults", []string{"-capplan", squeeze, "-capdump", filepath.Join(dir, "p.csv"), "-faults", "fail=0@1"}, 2},
		{"mtbf without mttr", []string{"-mtbf", "3"}, 2},
		{"mttr without mtbf", []string{"-mttr", "3"}, 2},
		{"negative mtbf", []string{"-mtbf", "-1", "-mttr", "1"}, 2},
		{"negative retries in a plan", []string{"-faults", "fail=0@1", "-retries", "-1"}, 2},
		{"negative ckpt in a plan", []string{"-faults", "fail=0@1", "-ckpt", "-1"}, 2},
		{"negative retries", []string{"-retries", "-1"}, 2},
		{"negative ckpt", []string{"-ckpt", "-1"}, 2},
		{"negative restartcost", []string{"-restartcost", "-1"}, 2},
		{"fault knobs without a plan", []string{"-retries", "2"}, 2},
		{"faults with faultfile", []string{"-faults", "fail=0@1", "-faultfile", missing}, 2},
		{"malformed faults", []string{"-faults", "nope"}, 2},
		{"invalid fault plan", []string{"-mtbf", "3", "-mttr", "0"}, 2},
		{"negative rollup", []string{"-policy", "fifo", "-events", filepath.Join(dir, "r.csv"), "-rollup", "-1"}, 2},
		{"rollup without events", []string{"-policy", "fifo", "-rollup", "1"}, 2},
		{"telemetry across all policies", []string{"-events", filepath.Join(dir, "e.ndjson")}, 2},
		{"audit across all policies", []string{"-audit", "summary"}, 2},
		{"malformed audit", []string{"-policy", "fifo", "-audit", "-1"}, 2},
		{"unknown cluster", []string{"-cluster", "nope"}, 2},
		{"ranks on a multi-pool platform", []string{"-cluster", "systemg:8,dori:8", "-ranks", "16"}, 2},
		{"unknown policy", []string{"-policy", "nope"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := schedrun(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, tc.code, stderr)
			}
			if code == 2 && (stdout != "" || stderr == "") {
				t.Fatalf("usage error must print only to stderr\nstdout: %q\nstderr: %q", stdout, stderr)
			}
		})
	}
}

func TestStatus(t *testing.T) {
	violated := sched.Result{Policy: "fifo", CapViolations: 2, Samples: 10}
	lost := sched.Result{Policy: "ee-max", JobsLost: 1, Jobs: make([]sched.JobResult, 4)}
	for _, tc := range []struct {
		results []sched.Result
		code    int
		want    []string
	}{
		{nil, 0, nil},
		{[]sched.Result{{Policy: "fifo", Samples: 10}}, 0, nil},
		{[]sched.Result{violated}, 3, []string{"WARNING: fifo exceeded the cap in 2 of 10 samples"}},
		{[]sched.Result{lost}, 4, []string{"WARNING: ee-max permanently lost 1 of 4 jobs to failures"}},
		// Violations take precedence over lost jobs.
		{[]sched.Result{lost, violated}, 3, []string{"exceeded the cap", "permanently lost"}},
	} {
		var out bytes.Buffer
		if code := status(&out, tc.results); code != tc.code {
			t.Errorf("status(%+v) = %d, want %d", tc.results, code, tc.code)
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("status output misses %q:\n%s", w, out.String())
			}
		}
		if len(tc.want) == 0 && out.Len() != 0 {
			t.Errorf("clean results printed %q", out.String())
		}
	}
}

// A plan exported with -capdump re-imports with -capfile to the
// identical schedule, byte for byte.
func TestCapdumpCapfileRoundTrip(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.csv")
	withPlan, stderr, code := schedrun(t, "-jobs", "16", "-ranks", "16", "-capplan", squeeze, "-reserve", "2", "-capdump", plan)
	if code != 0 {
		t.Fatalf("capplan run: exit %d: %s", code, stderr)
	}
	withFile, stderr, code := schedrun(t, "-jobs", "16", "-ranks", "16", "-capfile", plan, "-reserve", "2")
	if code != 0 {
		t.Fatalf("capfile run: exit %d: %s", code, stderr)
	}
	if withPlan != withFile {
		t.Fatalf("capfile schedule differs from capplan schedule:\n%s\n---\n%s", withPlan, withFile)
	}
	if !strings.Contains(withPlan, "budget windows") {
		t.Fatalf("plan run prints no budget windows:\n%s", withPlan)
	}
}

// Every exporter on one squeeze run: the Chrome trace and the results
// are JSON, the NDJSON stream is line-wise JSON over the core decision
// taxonomy, the metrics CSV has its header, and the audit summary
// ranks the block reasons.
func TestTelemetryExports(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	stdout, stderr, code := schedrun(t, "-jobs", "16", "-ranks", "16", "-capplan", squeeze,
		"-policy", "backfill+ee-max",
		"-trace", p("trace.json"), "-events", p("events.ndjson"), "-metrics", p("metrics.csv"),
		"-audit", "summary", "-json", p("result.json"))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, name := range []string{"trace.json", "result.json"} {
		if !json.Valid([]byte(slurp(t, p(name)))) {
			t.Errorf("%s is not valid JSON", name)
		}
	}
	kinds := eventKinds(t, p("events.ndjson"))
	for _, k := range []string{"arrive", "attempt", "admit", "finish", "sample"} {
		if !kinds[k] {
			t.Errorf("events.ndjson has no %q event", k)
		}
	}
	if !strings.Contains(slurp(t, p("trace.json")), `"name":"queue_depth"`) {
		t.Error("trace.json has no queue_depth counter track")
	}
	if !strings.HasPrefix(slurp(t, p("metrics.csv")), "t_s,") {
		t.Error("metrics.csv does not start with its t_s header")
	}
	if !strings.Contains(stdout, "blocked-on") {
		t.Errorf("audit summary has no blocked-on ranking:\n%s", stdout)
	}
}

// The fault surface across the policy families: every run completes
// without a violation or a lost job, the stream carries the full fault
// taxonomy, the fault summary is printed, and a replay is identical.
func TestFaultTaxonomyAndReplay(t *testing.T) {
	dir := t.TempDir()
	for _, pol := range []string{"fifo", "ee-max", "backfill+ee-max"} {
		t.Run(pol, func(t *testing.T) {
			var outs, streams [2]string
			for i := range outs {
				events := filepath.Join(dir, pol+string(rune('a'+i))+".ndjson")
				stdout, stderr, code := schedrun(t, "-jobs", "16", "-ranks", "16", "-cap", "900",
					"-policy", pol, "-faults", chaosPlan, "-events", events)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr)
				}
				outs[i], streams[i] = stdout, slurp(t, events)
				kinds := eventKinds(t, events)
				for _, k := range []string{"fail", "repair", "kill", "checkpoint", "restart", "emergency"} {
					if !kinds[k] {
						t.Errorf("no %q event in the fault stream", k)
					}
				}
			}
			if !strings.Contains(outs[0], "faults — "+pol+":") {
				t.Errorf("no fault summary for %s:\n%s", pol, outs[0])
			}
			if outs[0] != outs[1] || streams[0] != streams[1] {
				t.Error("a replay of the same (seed, plan) differs")
			}
		})
	}
}

// The -rollup CSV of one schedule is identical across runs and carries
// its header and totals footer.
func TestRollupReplay(t *testing.T) {
	dir := t.TempDir()
	var rolls [2]string
	for i := range rolls {
		path := filepath.Join(dir, string(rune('a'+i))+".csv")
		if _, stderr, code := schedrun(t, "-jobs", "48", "-capplan", demandCut,
			"-policy", "backfill+ee-max", "-rollup", "0.25", "-events", path); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		rolls[i] = slurp(t, path)
	}
	if rolls[0] != rolls[1] {
		t.Fatal("rollup CSV differs across identical runs")
	}
	if !strings.HasPrefix(rolls[0], "t0_s,") || !strings.Contains(rolls[0], "\n# totals:") {
		t.Fatalf("rollup CSV lacks its header or totals footer:\n%s", rolls[0])
	}
}

// -audit renders through traceq: a job ID prints exactly what traceq
// why prints on the same invocation's -events file, "summary" what
// traceq's Summary prints, and "all" every job's why then the summary.
func TestAuditMatchesTraceq(t *testing.T) {
	dir := t.TempDir()
	faulted := []string{"-jobs", "48", "-capplan", demandCut, "-policy", "backfill+ee-max",
		"-faults", "fail=0@0.3,repair=0@0.8,emer=0.4-0.5:2000,retries=3,ckpt=0.1,restart=0.02"}
	// audit runs one invocation and returns the audit block of its
	// stdout (between the header and the comparison table) along with
	// the decoded -events stream of the same run.
	audit := func(which string) (string, []telemetry.Event) {
		events := filepath.Join(dir, which+".ndjson")
		stdout, stderr, code := schedrun(t, append(faulted, "-audit", which, "-events", events)...)
		if code != 0 {
			t.Fatalf("-audit %s: exit %d: %s", which, code, stderr)
		}
		_, body, _ := strings.Cut(stdout, "\n\n") // trace and fault header
		block, _, ok := strings.Cut(body, "\npolicy ")
		if !ok {
			t.Fatalf("no comparison table after the audit:\n%s", stdout)
		}
		f, err := os.Open(events)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		evs, err := telemetry.DecodeNDJSON(f)
		if err != nil {
			t.Fatal(err)
		}
		return block, evs
	}
	render := func(fn func(w *bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	all, evs := audit("all")
	var want strings.Builder
	jobs := traceq.Jobs(evs)
	if len(jobs) != 48 {
		t.Fatalf("trace mentions %d jobs, want 48", len(jobs))
	}
	for _, id := range jobs {
		want.WriteString(render(func(w *bytes.Buffer) error { return traceq.Why(w, evs, id) }) + "\n")
	}
	want.WriteString(render(func(w *bytes.Buffer) error { return traceq.Summary(w, evs) }))
	if all != want.String() {
		t.Fatalf("-audit all differs from traceq over the -events file:\n%s\n---\n%s", all, want.String())
	}
	for _, k := range []string{"checkpoint t=", "kill     t=", "restart  t=", "unblocked by"} {
		if !strings.Contains(all, k) {
			t.Errorf("-audit all never prints %q", k)
		}
	}

	summary, evs := audit("summary")
	if want := render(func(w *bytes.Buffer) error { return traceq.Summary(w, evs) }); summary != want {
		t.Fatalf("-audit summary:\n%s\nwant:\n%s", summary, want)
	}

	// The worst-waiting job has the longest story to tell.
	worst, wait := 0, -1.0
	for _, ev := range evs {
		if ev.Kind == telemetry.EvAdmit && float64(ev.Wait) > wait {
			worst, wait = ev.Job, float64(ev.Wait)
		}
	}
	id := strconv.Itoa(worst)
	one, evs := audit(id)
	if want := render(func(w *bytes.Buffer) error { return traceq.Why(w, evs, worst) }); one != want {
		t.Fatalf("-audit %s:\n%s\nwant traceq why %s:\n%s", id, one, id, want)
	}
}

// -json is the library's result for the same configuration: what the
// command line selects is exactly what sched.Config runs.
func TestJSONMatchesLibraryRun(t *testing.T) {
	stdout, stderr, code := schedrun(t, "-jobs", "24", "-cluster", "systemg:16", "-ranks", "16",
		"-capplan", "0:900,1:650,2.2:900", "-seed", "42", "-policy", "ee-max", "-json", "-")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	_, js, ok := strings.Cut(stdout, "\n[")
	if !ok {
		t.Fatalf("no JSON array on stdout:\n%s", stdout)
	}
	var got any
	if err := json.Unmarshal([]byte("["+js), &got); err != nil {
		t.Fatal(err)
	}

	platform, err := machine.ParsePlatform("systemg:16")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := capplan.ParsePlan("0:900,1:650,2.2:900")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(sched.Config{Platform: platform, Ranks: 16, Plan: plan, Policy: sched.EEMax(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sched.SyntheticTrace(sched.TraceConfig{Jobs: 24, Seed: 42}))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal([]sched.Result{res})
	if err != nil {
		t.Fatal(err)
	}
	var want any
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("schedrun -json differs from the library run of the same configuration")
	}
}

// A CSV fault plan reruns with command-line knob overrides.
func TestFaultFileKnobOverrides(t *testing.T) {
	plan, err := faults.ParsePlan("fail=0@0.3,retries=0")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "faults.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	base := []string{"-jobs", "16", "-ranks", "16", "-cap", "900", "-policy", "fifo", "-faultfile", path}
	if _, _, code := schedrun(t, base...); code != 4 {
		t.Fatalf("retries=0 plan: exit %d, want 4 (a job lost)", code)
	}
	stdout, stderr, code := schedrun(t, append(base, "-retries", "3")...)
	if code != 0 {
		t.Fatalf("-retries 3 override: exit %d, want 0: %s", code, stderr)
	}
	if !strings.Contains(stdout, "retries=3") {
		t.Fatalf("the override is not in the printed plan:\n%s", stdout)
	}
}
