// Trace-analysis walkthrough: a schedule narrating every decision it
// makes, exported three ways, then interrogated offline — the whole
// observability layer in one run.
//
// internal/telemetry taps the scheduler's decision points (admission
// attempts with the exact reason a job stayed queued, backfill
// reservations, governor throttles and boosts, plan breakpoints,
// profiler cap audits) into one sim-time-stamped event stream, plus a
// metrics registry sampled on every scheduling edge. A nil recorder
// costs nothing: every schedule in this repo runs the identical code
// path with telemetry off. This example attaches all three exporters
// to a demand-response squeeze, writing into a fresh temp directory:
//
//   - trace.json — Chrome trace-event JSON. Open https://ui.perfetto.dev
//     and drag the file in: per-rank tracks show occupancy and retunes,
//     per-job tracks wait/run spans, counter tracks queue depth,
//     headroom, and draw vs cap.
//   - events.ndjson — the raw stream, one JSON object per line; the
//     input of cmd/traceq.
//   - metrics.csv — the registry sampled in sim time.
//
// It then decodes events.ndjson (telemetry.DecodeNDJSON is the format
// contract's inverse) and runs the internal/traceq queries on it, as
// `traceq <query> events.ndjson` and `schedrun -audit` do:
//
//   - why:      one job's lifecycle, ranked block reasons, and the
//     causal chain of completions that finally unblocked it;
//   - summary:  event counts per kind and the ranked block reasons;
//   - critpath: the wait/run dependency chain that set the makespan;
//   - windows:  the per-cap-window rollup (admissions, energy, peak
//     power per budget window).
//
// Everything is deterministic: the same (seed, plan) pair produces the
// same trace, so the same queries print the same answers.
//
// Run it:
//
//	go run ./examples/trace-analysis
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/capplan"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/traceq"
)

func main() {
	// A demand-response squeeze mid-trace: 2500 W, dipping to 2000 W
	// between t=0.3 and t=0.6 — jobs queue up at the squeeze and drain
	// at the recovery edge, which gives the queries something to say.
	plan, err := capplan.ParsePlan("0:2500,0.3:2000,0.6:2500")
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "trace-analysis-")
	if err != nil {
		log.Fatal(err)
	}
	path := func(name string) string { return filepath.Join(dir, name) }

	// One recorder, every exporter. Sinks receive each event as it is
	// emitted, and the metrics registry streams its CSV rows as the
	// scheduler samples it on each edge.
	var files []*os.File
	for _, name := range []string{"trace.json", "events.ndjson", "metrics.csv"} {
		f, err := os.Create(path(name))
		if err != nil {
			log.Fatal(err)
		}
		files = append(files, f)
	}
	rec := telemetry.New(telemetry.NewChromeTraceSink(files[0]), telemetry.NewNDJSONSink(files[1]))
	rec.Metrics().StreamCSV(files[2])

	// The traced run: handing the recorder in via Config is the only
	// line a caller adds to instrument a schedule.
	s, err := sched.New(sched.Config{
		Platform:  machine.Homogeneous(machine.SystemG()),
		Ranks:     64,
		Plan:      plan,
		Policy:    sched.Backfill(sched.EEMax()),
		Seed:      1,
		Telemetry: rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Run(sched.SyntheticTrace(sched.TraceConfig{Jobs: 32, Seed: 1}))
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		log.Fatal(err)
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if err := rec.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule: %d jobs, makespan %v, %d violations; artefacts in %s\n\n",
		res.Completed, res.Makespan, res.CapViolations, dir)

	// Decode the stream back — the same parse cmd/traceq applies.
	f, err := os.Open(path("events.ndjson"))
	if err != nil {
		log.Fatal(err)
	}
	evs, err := telemetry.DecodeNDJSON(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	// Pick the longest-waiting admitted job: the one "why" has the most
	// to explain.
	worst, worstWait := -1, -1.0
	for _, ev := range evs {
		if ev.Kind == telemetry.EvAdmit && float64(ev.Wait) > worstWait {
			worst, worstWait = ev.Job, float64(ev.Wait)
		}
	}
	fmt.Printf("== traceq why %d ==\n", worst)
	if err := traceq.Why(os.Stdout, evs, worst); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== schedrun -audit summary ==")
	if err := traceq.Summary(os.Stdout, evs); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== traceq critpath ==")
	if err := traceq.Critpath(os.Stdout, evs); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== traceq windows ==")
	if err := traceq.Windows(os.Stdout, evs); err != nil {
		log.Fatal(err)
	}
}
