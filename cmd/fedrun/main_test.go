package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/capplan"
	"repro/internal/fed"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/traceq"
)

// fedrun runs one command line in-process.
func fedrun(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	small := []string{"-jobs", "8"}
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"help", []string{"-h"}, 0},
		{"one combination", append(small, "-split", "static-share", "-route", "rr"), 0},
		{"empty trace", []string{"-jobs", "0"}, 0},

		{"events in a missing directory", append(small, "-split", "greedy-ee", "-route", "ee", "-events", filepath.Join(dir, "no", "fed")), 1},
		{"guarantee fraction out of range", append(small, "-lambda", "2"), 1},
		{"duplicate site names", append(small, "-sites", "a=systemg:16;a=systemg:16"), 1},

		{"unknown flag", []string{"-nope"}, 2},
		{"negative jobs", []string{"-jobs", "-5"}, 2},
		{"negative cap", []string{"-cap", "-5"}, 2},
		{"zero cap", []string{"-cap", "0"}, 2},
		{"cap with budget", []string{"-cap", "1800", "-budget", "0:1800"}, 2},
		{"malformed budget", []string{"-budget", "nope"}, 2},
		{"no sites", []string{"-sites", ";"}, 2},
		{"site without a platform", []string{"-sites", "east"}, 2},
		{"unknown site platform", []string{"-sites", "east=nope"}, 2},
		{"carbon entry without a site", []string{"-carbon", "0:100"}, 2},
		{"carbon for an unknown site", []string{"-carbon", "north=0:100"}, 2},
		{"malformed carbon sample", []string{"-carbon", "east=0-100"}, 2},
		{"carbon signal not starting at zero", []string{"-carbon", "east=1:100"}, 2},
		{"malformed local plan", []string{"-local", "west=0:-5"}, 2},
		{"unknown policy", []string{"-policy", "nope"}, 2},
		{"unknown split", []string{"-split", "nope"}, 2},
		{"unknown route", []string{"-route", "nope"}, 2},
		{"events across a sweep", []string{"-events", filepath.Join(dir, "fed")}, 2},
		{"status across a sweep", []string{"-split", "greedy-ee", "-status", "127.0.0.1:0"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := fedrun(t, tc.args...)
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
	violated := fed.Result{Split: "greedy-ee", Route: "ee", CapViolations: 3}
	lost := fed.Result{Split: "static-share", Route: "rr", JobsLost: 2}
	for _, tc := range []struct {
		results []fed.Result
		code    int
		want    []string
	}{
		{nil, 0, nil},
		{[]fed.Result{{Split: "static-share", Route: "ee"}}, 0, nil},
		{[]fed.Result{violated}, 3, []string{"WARNING: greedy-ee × ee exceeded a site cap in 3 samples"}},
		{[]fed.Result{lost}, 4, []string{"WARNING: static-share × rr permanently lost 2 jobs to failures"}},
		// Violations take precedence over lost jobs.
		{[]fed.Result{lost, violated}, 3, []string{"exceeded a site cap", "permanently lost"}},
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

// A 2-site sweep over every split × route under a mid-trace squeeze
// keeps every site under its cap, and a replay is byte-identical.
func TestSweepReplay(t *testing.T) {
	dir := t.TempDir()
	var outs, jsons [2]string
	for i := range outs {
		path := filepath.Join(dir, string(rune('a'+i))+".json")
		stdout, stderr, code := fedrun(t, "-jobs", "16", "-sites", "east=systemg:16;west=systemg:16",
			"-budget", "0:1800,1:1500,2.2:1800", "-carbon", "east=0:300,1.5:100;west=0:100,1.5:300",
			"-split", "all", "-route", "all", "-json", path)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		outs[i], jsons[i] = stdout, slurp(t, path)
	}
	for _, name := range []string{"static-share", "greedy-ee", "carbon-min", "ee", "jct", "rr"} {
		if !strings.Contains(outs[0], name) {
			t.Errorf("the sweep table has no %s row:\n%s", name, outs[0])
		}
	}
	if !json.Valid([]byte(jsons[0])) {
		t.Fatal("-json output is not valid JSON")
	}
	if outs[0] != outs[1] || jsons[0] != jsons[1] {
		t.Fatal("a replayed sweep differs")
	}
}

// A 1-site federation reduces exactly to the bare scheduler: its site
// result equals a plain sched run of the same trace, platform and cap
// timeline, field for field.
func TestOneSiteMatchesBareScheduler(t *testing.T) {
	stdout, stderr, code := fedrun(t, "-jobs", "24", "-sites", "solo=systemg:16",
		"-budget", "0:900,1:650,2.2:900", "-seed", "42", "-split", "static-share", "-route", "ee", "-json", "-")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	_, js, ok := strings.Cut(stdout, "\n[")
	if !ok {
		t.Fatalf("no JSON array on stdout:\n%s", stdout)
	}
	var results []struct{ Sites []struct{ Result any } }
	if err := json.Unmarshal([]byte("["+js), &results); err != nil {
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
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var want any
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(results[0].Sites) != 1 {
		t.Fatalf("want one result with one site, got %+v", results)
	}
	if !reflect.DeepEqual(results[0].Sites[0].Result, want) {
		t.Fatal("the 1-site federation differs from the bare scheduler")
	}
}

// Per-site -events streams merge deterministically: the merge of two
// identical runs is byte-identical, every merged event carries its
// site stamp, and sim time never goes backwards.
func TestEventsMergeDeterministic(t *testing.T) {
	dir := t.TempDir()
	var merged [2]string
	for i := range merged {
		prefix := filepath.Join(dir, string(rune('a'+i)))
		if _, stderr, code := fedrun(t, "-jobs", "24", "-sites", "east=systemg:16;west=systemg:16",
			"-cap", "1800", "-split", "greedy-ee", "-route", "ee", "-events", prefix); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		var traces []traceq.NamedTrace
		for _, site := range []string{"east", "west"} {
			evs, err := telemetry.DecodeNDJSON(strings.NewReader(slurp(t, prefix+"-"+site+".ndjson")))
			if err != nil {
				t.Fatal(err)
			}
			traces = append(traces, traceq.NamedTrace{Site: site, Events: evs})
		}
		if _, err := telemetry.DecodeNDJSON(strings.NewReader(slurp(t, prefix+"-route.ndjson"))); err != nil {
			t.Fatalf("route stream: %v", err)
		}
		var buf bytes.Buffer
		if err := traceq.Merge(&buf, traces); err != nil {
			t.Fatal(err)
		}
		merged[i] = buf.String()
	}
	if merged[0] != merged[1] {
		t.Fatal("the merged federated trace differs across identical runs")
	}
	evs, err := telemetry.DecodeNDJSON(strings.NewReader(merged[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("empty merge")
	}
	sites := map[string]int{}
	for i, ev := range evs {
		sites[ev.Site]++
		if i > 0 && ev.T < evs[i-1].T {
			t.Fatalf("event %d at t=%v precedes its predecessor at t=%v", i, ev.T, evs[i-1].T)
		}
	}
	if len(sites) != 2 || sites["east"] == 0 || sites["west"] == 0 {
		t.Fatalf("merged events are not all stamped east or west: %v", sites)
	}
}
