package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/capplan"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// tq runs one traceq command line in-process.
func tq(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// demandResponse writes the NDJSON trace `schedrun -jobs 48 -capplan
// 0:2500,0.3:2000,0.6:2500 -policy backfill+ee-max -events FILE` writes
// and returns its path and the worst-waiting admitted job.
func demandResponse(t *testing.T) (path string, worst int) {
	t.Helper()
	plan, err := capplan.ParsePlan("0:2500,0.3:2000,0.6:2500")
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "trace.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := telemetry.New(telemetry.NewNDJSONSink(f))
	s, err := sched.New(sched.Config{
		Platform:  machine.Homogeneous(machine.SystemG()),
		Ranks:     64,
		Plan:      plan,
		Policy:    sched.Backfill(sched.EEMax()),
		Seed:      1,
		Telemetry: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(sched.SyntheticTrace(sched.TraceConfig{Jobs: 48, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := telemetry.DecodeNDJSON(strings.NewReader(mustRead(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	wait := -1.0
	for _, ev := range evs {
		if ev.Kind == telemetry.EvAdmit && float64(ev.Wait) > wait {
			worst, wait = ev.Job, float64(ev.Wait)
		}
	}
	return path, worst
}

func mustRead(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestExitCodes(t *testing.T) {
	trace, _ := demandResponse(t)
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.ndjson")
	garbage := filepath.Join(dir, "garbage.ndjson")
	if err := os.WriteFile(garbage, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"help", []string{"-h"}, 0},
		{"why", []string{"why", "0", trace}, 0},
		{"critpath", []string{"critpath", trace}, 0},
		{"windows", []string{"windows", trace}, 0},
		{"merge", []string{"merge", "a=" + trace, trace}, 0},

		{"unreadable trace", []string{"windows", missing}, 1},
		{"malformed trace", []string{"critpath", garbage}, 1},
		{"unreadable merge input", []string{"merge", trace, missing}, 1},
		{"job not in the trace", []string{"why", "999", trace}, 1},

		{"no command", nil, 2},
		{"unknown flag", []string{"-nope"}, 2},
		{"unknown command", []string{"nope", trace}, 2},
		{"why without a trace", []string{"why", "0"}, 2},
		{"why with a non-integer job", []string{"why", "x", trace}, 2},
		{"critpath with extra arguments", []string{"critpath", trace, trace}, 2},
		{"windows without a trace", []string{"windows"}, 2},
		{"merge without inputs", []string{"merge"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := tq(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, tc.code, stderr)
			}
			if code == 2 && (stdout != "" || !strings.Contains(stderr, "usage: traceq")) {
				t.Fatalf("usage error must print the usage text only to stderr\nstdout: %q\nstderr: %q", stdout, stderr)
			}
		})
	}
}

// The queries over a demand-response trace: why explains the
// worst-waiting job (lifecycle, block reasons, causal chain), critpath
// accounts for the makespan, and windows has one row per cap window.
func TestDemandResponseQueries(t *testing.T) {
	trace, worst := demandResponse(t)
	why, stderr, code := tq(t, "why", strconv.Itoa(worst), trace)
	if code != 0 {
		t.Fatalf("why: exit %d: %s", code, stderr)
	}
	for _, want := range []string{"job " + strconv.Itoa(worst), "blocked", "unblocked by"} {
		if !strings.Contains(why, want) {
			t.Errorf("why %d misses %q:\n%s", worst, want, why)
		}
	}
	crit, stderr, code := tq(t, "critpath", trace)
	if code != 0 {
		t.Fatalf("critpath: exit %d: %s", code, stderr)
	}
	if !regexp.MustCompile(`of .*makespan`).MatchString(crit) {
		t.Errorf("critpath does not account for the makespan:\n%s", crit)
	}
	win, stderr, code := tq(t, "windows", trace)
	if code != 0 {
		t.Fatalf("windows: exit %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(win, "\n"), "\n")
	// Header plus three cap windows: 2500 → 2000 → 2500.
	if !strings.Contains(lines[0], "cap_w") || len(lines) != 4 {
		t.Errorf("windows wants a cap_w header and 3 rows:\n%s", win)
	}
}

// merge stamps events that carry no site with their input's label —
// the explicit site= label, else the file's base name — and orders the
// stream by sim time.
func TestMergeStampsSites(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, evs ...telemetry.Event) string {
		var buf bytes.Buffer
		sink := telemetry.NewNDJSONSink(&buf)
		for _, ev := range evs {
			if err := sink.Write(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("east.ndjson", telemetry.Event{T: 0, Kind: telemetry.EvArrive, Job: 0}, telemetry.Event{T: 2, Kind: telemetry.EvArrive, Job: 2})
	b := write("b.ndjson", telemetry.Event{T: 1, Kind: telemetry.EvArrive, Job: 1})
	stdout, stderr, code := tq(t, "merge", a, "west="+b)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	evs, err := telemetry.DecodeNDJSON(strings.NewReader(stdout))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range evs {
		got = append(got, ev.Site+"@"+strconv.FormatFloat(float64(ev.T), 'g', -1, 64))
	}
	if strings.Join(got, " ") != "east@0 west@1 east@2" {
		t.Fatalf("merged stream = %v, want east@0 west@1 east@2", got)
	}
}
