// Command schedrun races the power-budget scheduling policies head to
// head on one synthetic job trace: the same jobs, the same cluster, the
// same power cap — only the policy differs. The comparison table is the
// paper's "power-constrained parallel computation" at fleet scale: the
// iso-energy-efficiency-aware policies should complete the trace at
// least as fast as the FIFO baseline while spending less energy per job
// and never exceeding the cap.
//
// With -backfill every policy is wrapped in EASY-style reservations
// (sched.Backfill): a blocked queue head is promised ranks and watts at
// a model-predicted future start, and later jobs only jump it when they
// cannot delay that start — bounding the worst-case wait of wide jobs.
// A specific wrapped policy can also be named directly, e.g.
// -policy backfill+ee-max.
//
// Profiling the scheduler hot path needs no test binary: -cpuprofile /
// -memprofile write pprof files covering the schedule runs, and
// -repeat N executes each selected policy's schedule N times so short
// traces accumulate enough samples (the comparison table reports the
// last repetition; repetitions are independent and identical).
//
// The -cluster flag accepts either a bare preset ("systemg", "dori") or
// a mixed pool list ("systemg:32,dori:32") building a heterogeneous
// platform: each pool keeps its own machine vector and DVFS ladder, and
// the policies place every job entirely within one pool (ee-max picks
// the EE-best pool, fifo the lowest-ranked pool that fits).
//
// The cap can be a timeline instead of a constant: -capplan takes
// "start:watts" windows ("0:2500,2:1500,4:2500" squeezes the budget
// mid-trace — a demand-response event), -capfile reads the same
// timeline from a t_s,cap_w CSV (an externally logged tariff or carbon
// trace), and -capdump writes the active timeline back out as CSV, so
// an exported plan re-imports to the identical schedule. Plan runs
// print a per-window table: energy, mean draw, cap utilisation and
// violations inside every budget window.
//
// -reserve K holds EASY reservations for the first K blocked jobs
// (conservative multi-reservation backfill; K > 1 implies -backfill).
//
// Fault injection (internal/faults) threads deterministic failures
// through the runs: -faults takes a plan spec ("fail=3@10,mtbf=*:900,
// mttr=*:120,emer=20-40:600,retries=2,ckpt=30,restart=5"), -faultfile
// reads the same plan from CSV, and -mtbf/-mttr (always together) set a
// wildcard failure/repair process for every pool from the command line;
// -retries, -ckpt and -restartcost override the corresponding plan
// knobs. A plan's power emergencies clamp the effective cap, so
// -capdump — which exports the budget timeline alone — cannot combine
// with fault injection. Fault runs print a per-policy fault summary.
//
// Observability (internal/telemetry) attaches to a single named policy:
// -trace writes a Chrome trace-event JSON timeline (open in Perfetto or
// chrome://tracing), -events the raw decision stream as NDJSON,
// -metrics the sim-time metrics registry as CSV, and -audit renders the
// decision stream on stdout through internal/traceq: "summary" for the
// event counts and ranked block reasons, a job ID for exactly what
// `traceq why ID` prints on the -events file, or "all" for every job's
// why followed by the summary. These flags need -policy NAME — a
// decision stream interleaving several independent schedules would be
// meaningless — and with -repeat N they record only the final
// repetition, so profiling runs stay clean. -json dumps the
// machine-readable results (any policy selection) to a file, or stdout
// with "-".
//
// Exit status: 0 success, 1 I/O or run errors, 2 usage errors (all
// reported before anything is printed on stdout), 3 when any run
// violated the cap, 4 when any job was permanently lost (killed past
// its retry cap); violations take precedence, and both print their
// tables first.
//
// Usage:
//
//	schedrun -jobs 64 -cap 2500 [-ranks 64] [-cluster systemg:32,dori:32]
//	         [-capplan 0:2500,3600:1500 | -capfile plan.csv] [-capdump out.csv]
//	         [-faults fail=3@10,retries=2 | -faultfile plan.csv]
//	         [-mtbf S -mttr S] [-retries N] [-ckpt S] [-restartcost S]
//	         [-policy all] [-backfill] [-reserve K] [-detail] [-edge]
//	         [-trace out.json] [-events out.ndjson] [-metrics out.csv]
//	         [-audit summary|all|ID] [-json out.json]
//	         [-repeat N] [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"

	"repro/internal/capplan"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/traceq"
	"repro/internal/units"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one schedrun command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	results, err := schedule(args, stdout, stderr)
	switch {
	case err == nil:
		return status(stdout, results)
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != errFlags: // the FlagSet reports its own errors
		fmt.Fprintln(stderr, err)
	}
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// usageError is a bad command line: exit status 2.
type usageError struct{ error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// errFlags is a command line the FlagSet rejected.
var errFlags = usageError{errors.New("schedrun: bad flags")}

// status prints a warning for every broken guarantee and maps the
// results to the exit status: 3 when any run exceeded the cap, else 4
// when any job was permanently lost to failures, else 0.
func status(w io.Writer, results []sched.Result) int {
	code := 0
	for _, r := range results {
		if r.CapViolations > 0 {
			fmt.Fprintf(w, "\nWARNING: %s exceeded the cap in %d of %d samples\n", r.Policy, r.CapViolations, r.Samples)
			code = 3
		}
	}
	for _, r := range results {
		if r.JobsLost > 0 {
			fmt.Fprintf(w, "\nWARNING: %s permanently lost %d of %d jobs to failures\n", r.Policy, r.JobsLost, len(r.Jobs))
			if code == 0 {
				code = 4
			}
		}
	}
	return code
}

// schedule parses the command line, runs every selected policy and
// prints the reports; the results feed the exit status.
func schedule(args []string, stdout, stderr io.Writer) (results []sched.Result, err error) {
	fs := flag.NewFlagSet("schedrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobs := fs.Int("jobs", 64, "number of jobs in the synthetic trace")
	cap := fs.Float64("cap", 2500, "cluster power cap in watts")
	ranks := fs.Int("ranks", 64, "cluster size in ranks (ignored when -cluster lists explicit pool sizes)")
	clusterName := fs.String("cluster", "systemg", "platform: a preset (systemg, dori) or mixed pools like systemg:32,dori:32")
	capPlan := fs.String("capplan", "", "time-varying cap plan as start:watts windows, e.g. 0:2500,3600:1500,7200:2500 (excludes -cap)")
	capFile := fs.String("capfile", "", "read the cap plan from a t_s,cap_w CSV file (excludes -cap and -capplan)")
	capDump := fs.String("capdump", "", "write the active cap plan to this CSV file (requires -capplan or -capfile)")
	faultSpec := fs.String("faults", "", "fault-injection plan spec, e.g. fail=3@10,mtbf=*:900,mttr=*:120,retries=2,ckpt=30 (excludes -faultfile)")
	faultFile := fs.String("faultfile", "", "read the fault plan from a kind,subject,t0_s,t1_s,value CSV file (excludes -faults)")
	mtbf := fs.Float64("mtbf", 0, "wildcard mean time between failures in seconds for every pool (needs -mttr)")
	mttr := fs.Float64("mttr", 0, "wildcard mean time to repair in seconds for every pool (needs -mtbf)")
	retries := fs.Int("retries", 3, "retry cap: a job killed after this many restarts is permanently lost")
	ckpt := fs.Float64("ckpt", 0, "checkpoint interval in seconds (0 disables periodic checkpoints)")
	restartCost := fs.Float64("restartcost", 0, "restart surcharge in seconds added to every resumed attempt")
	policy := fs.String("policy", "all", "policy to run: fifo, ee-max, fair-share, backfill+<name>, or all")
	backfill := fs.Bool("backfill", false, "wrap every selected policy in EASY backfill reservations")
	reserve := fs.Int("reserve", 1, "hold backfill reservations for the first K blocked jobs (K>1 implies -backfill)")
	seed := fs.Int64("seed", 1, "trace and simulation seed")
	interval := fs.Float64("interval", 0, "governor sampling interval in seconds (0 = the 25ms default; negative is rejected)")
	edge := fs.Bool("edge", false, "retune on admission/completion edges in addition to the sampling grid")
	detail := fs.Bool("detail", false, "print per-job tables")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON timeline (Perfetto) to this file (needs -policy NAME)")
	eventsPath := fs.String("events", "", "write the decision event stream as NDJSON to this file (needs -policy NAME)")
	metricsPath := fs.String("metrics", "", "write sim-time metrics as CSV to this file (needs -policy NAME)")
	audit := fs.String("audit", "", `print a decision audit: "summary", "all", or a job ID (needs -policy NAME)`)
	jsonPath := fs.String("json", "", `write machine-readable results as JSON to this file ("-" = stdout)`)
	verbose := fs.Bool("v", false, "print a one-line host-side summary (wall time, events/s, opcache hit rate, allocations) after each policy run")
	rollup := fs.Float64("rollup", 0, "aggregate -events into sim-time buckets of this width in seconds: a bounded-memory CSV rollup instead of raw NDJSON")
	statusAddr := fs.String("status", "", "serve live run status over HTTP on this address (e.g. :8080 or 127.0.0.1:0): JSON at /status.json, Prometheus text at /metrics")
	repeat := fs.Int("repeat", 1, "run each policy's schedule N times (profiling workload)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the schedule runs to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the schedule runs to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, errFlags
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// Fault knobs given on the command line override the corresponding
	// plan knobs, so a CSV plan can be rerun with a different retry cap
	// or checkpoint cadence without editing the file.
	faultKnobs := set["mtbf"] || set["mttr"] || set["retries"] || set["ckpt"] || set["restartcost"]
	// The telemetry flags record one schedule's decision stream.
	telemetryOn := *tracePath != "" || *eventsPath != "" || *metricsPath != "" || *audit != ""
	auditJob, auditErr := strconv.Atoi(*audit)
	switch {
	case *jobs < 0:
		return nil, usagef("-jobs %d must not be negative", *jobs)
	case !(*cap > 0):
		return nil, usagef("-cap %g must be a positive wattage", *cap)
	case *repeat < 1:
		return nil, usagef("-repeat %d must be at least 1", *repeat)
	case !(*interval >= 0):
		return nil, usagef("-interval %g is negative; pass 0 for the 25 ms default or a positive period", *interval)
	case *reserve < 1:
		return nil, usagef("-reserve %d must be at least 1", *reserve)
	case *capPlan != "" && *capFile != "":
		return nil, usagef("-capplan and -capfile are mutually exclusive")
	case set["cap"] && (*capPlan != "" || *capFile != ""):
		return nil, usagef("-cap cannot combine with a cap plan; put the constant in the plan's first window instead")
	case *capDump != "" && *capPlan == "" && *capFile == "":
		return nil, usagef("-capdump needs -capplan or -capfile")
	case set["mtbf"] != set["mttr"]:
		return nil, usagef("-mtbf and -mttr must be given together: a failure process without a repair rate (or vice versa) is underspecified")
	case *faultSpec != "" && *faultFile != "":
		return nil, usagef("-faults and -faultfile are mutually exclusive")
	case *faultSpec == "" && *faultFile == "" && faultKnobs && !set["mtbf"]:
		return nil, usagef("-retries/-ckpt/-restartcost tune a fault plan; give one with -faults, -faultfile or -mtbf/-mttr")
	case *capDump != "" && (*faultSpec != "" || *faultFile != "" || faultKnobs):
		return nil, usagef("-capdump exports the budget timeline alone and cannot combine with fault injection: power emergencies reshape the effective cap")
	case !(*rollup >= 0):
		return nil, usagef("-rollup %g must not be negative", *rollup)
	case *rollup > 0 && *eventsPath == "":
		return nil, usagef("-rollup aggregates the -events stream; give it a destination with -events FILE")
	case telemetryOn && *policy == "all":
		return nil, usagef("-trace/-events/-metrics/-audit record a single schedule; select one policy with -policy NAME")
	case *audit != "" && *audit != "summary" && *audit != "all" && (auditErr != nil || auditJob < 0):
		return nil, usagef("-audit %q: want \"summary\", \"all\", or a job ID", *audit)
	}

	var plan *capplan.Plan
	if *capPlan != "" {
		if plan, err = capplan.ParsePlan(*capPlan); err != nil {
			return nil, usageError{err}
		}
	} else if *capFile != "" {
		if plan, err = readFile(*capFile, capplan.ReadCSV); err != nil {
			return nil, err
		}
	}
	fplan, err := faultPlan(*faultSpec, *faultFile, set, *mtbf, *mttr, *retries, *ckpt, *restartCost)
	if err != nil {
		return nil, err
	}

	platform, err := machine.ParsePlatform(*clusterName)
	if err != nil {
		return nil, usageError{err}
	}
	// A multi-pool platform defines the cluster exactly (every pool's
	// node count); the -ranks default only sizes a bare single preset,
	// whose full node count is far larger than a useful demo cluster.
	// Truncating a mixed platform to a rank prefix would silently strip
	// the later pools, so -ranks and multi-pool are mutually exclusive.
	clusterRanks := *ranks
	if len(platform.Pools) > 1 {
		if set["ranks"] {
			return nil, usagef("-ranks cannot resize a multi-pool platform; size each pool instead, e.g. -cluster systemg:32,dori:32")
		}
		clusterRanks = 0 // whole platform
	}

	var policies []sched.Policy
	if *policy == "all" {
		all := sched.Policies()
		names := slices.Sorted(maps.Keys(all))
		// Baseline first so the table reads as baseline vs. contenders.
		sort.SliceStable(names, func(a, b int) bool { return names[a] == "fifo" && names[b] != "fifo" })
		for _, name := range names {
			policies = append(policies, all[name])
		}
	} else {
		p, err := sched.PolicyByName(*policy)
		if err != nil {
			return nil, usagef("%v; or -policy all", err)
		}
		policies = []sched.Policy{p}
	}
	if *backfill || *reserve > 1 {
		for i, p := range policies {
			policies[i] = sched.BackfillN(p, *reserve)
		}
	}

	// Every output file is created before any work, so a bad path fails
	// before the first line of output; all are closed on return, and a
	// failed Close fails the run.
	out := map[string]*os.File{}
	defer func() {
		for _, f := range out {
			err = errors.Join(err, f.Close())
		}
	}()
	for _, path := range []string{*capDump, *eventsPath, *tracePath, *metricsPath, *cpuprofile, *memprofile} {
		if path != "" && out[path] == nil {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			out[path] = f
		}
	}
	if *capDump != "" {
		if err := plan.WriteCSV(out[*capDump]); err != nil {
			return nil, err
		}
	}
	// Telemetry records only the final repetition of the one selected
	// policy: repetitions are identical, and the earlier ones exist
	// purely as a profiling workload that should stay free of sink I/O.
	var tel *telemetry.Recorder
	var mem *telemetry.MemorySink
	if telemetryOn {
		tel = telemetry.New()
		switch {
		case *rollup > 0:
			rs, err := telemetry.NewRollupSink(out[*eventsPath], units.Seconds(*rollup))
			if err != nil {
				return nil, err
			}
			tel.AddSink(rs)
		case *eventsPath != "":
			tel.AddSink(telemetry.NewNDJSONSink(out[*eventsPath]))
		}
		if *tracePath != "" {
			tel.AddSink(telemetry.NewChromeTraceSink(out[*tracePath]))
		}
		if *audit != "" {
			mem = telemetry.NewMemorySink()
			tel.AddSink(mem)
		}
		if *metricsPath != "" {
			tel.Metrics().StreamCSV(out[*metricsPath])
		}
	}
	if *cpuprofile != "" {
		if err := pprof.StartCPUProfile(out[*cpuprofile]); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	// The status server outlives individual runs: each policy run
	// publishes snapshots under its own label, and the final snapshot of
	// a finished run stays queryable while later policies execute.
	var srv *obs.StatusServer
	if *statusAddr != "" {
		if srv, err = obs.ListenStatus(*statusAddr); err != nil {
			return nil, err
		}
		defer srv.Close()
	}

	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: *jobs, Seed: *seed})
	shownRanks := clusterRanks
	if shownRanks == 0 {
		shownRanks = platform.TotalRanks()
	}
	budget := fmt.Sprintf("a %.0f W cap", *cap)
	if plan != nil {
		budget = "cap plan " + plan.String()
	}
	fmt.Fprintf(stdout, "trace: %d jobs on %s/%d ranks under %s (seed %d)\n", *jobs, platform, shownRanks, budget, *seed)
	if fplan != nil {
		fmt.Fprintf(stdout, "faults: %s\n", fplan)
	}
	fmt.Fprintln(stdout)
	if srv != nil {
		fmt.Fprintf(stdout, "status: http://%s (JSON at /status.json, Prometheus at /metrics)\n\n", srv.Addr())
	}

	for _, pol := range policies {
		var res sched.Result
		var host *obs.Host
		for r := 0; r < *repeat; r++ {
			cfg := sched.Config{
				Platform:   platform,
				Ranks:      clusterRanks,
				Policy:     pol,
				Interval:   units.Seconds(*interval),
				EdgeRetune: *edge,
				Seed:       *seed,
				Faults:     fplan,
			}
			if plan != nil {
				cfg.Plan = plan
			} else {
				cfg.Cap = units.Watts(*cap)
			}
			var rec *telemetry.Recorder
			if r == *repeat-1 {
				rec = tel
			}
			// Host-side observability: a fresh collector per repetition
			// so phase timers and allocation deltas cover exactly one
			// run; -v prints the final repetition's summary below.
			if *verbose || srv != nil {
				host = obs.NewHost()
				cfg.Obs = host
			}
			if srv != nil {
				// Live publishing needs an event stream to pace it; an
				// otherwise sink-less run gets a recorder carrying only
				// the publisher.
				if rec == nil {
					rec = telemetry.New()
				}
				rec.AddSink(obs.NewPublisher(srv, pol.Name(), host, rec.Metrics(), 0))
			}
			cfg.Telemetry = rec
			s, err := sched.New(cfg)
			if err != nil {
				return nil, err
			}
			if res, err = s.Run(trace); err != nil {
				return nil, err
			}
			if rec != nil {
				if err := errors.Join(rec.Close(), rec.Err(), rec.Metrics().Err()); err != nil {
					return nil, err
				}
			}
		}
		results = append(results, res)
		if *verbose && host != nil {
			fmt.Fprintf(stdout, "host %s: %s\n", res.Policy, host.Summary())
		}
		if *detail {
			fmt.Fprintf(stdout, "== %s ==\n%s\n", res.Policy, res.JobTable())
		}
		if mem != nil {
			if err := writeAudit(stdout, mem.Events(), *audit); err != nil {
				return nil, err
			}
		}
	}

	if *memprofile != "" {
		runtime.GC()
		if err := pprof.WriteHeapProfile(out[*memprofile]); err != nil {
			return nil, err
		}
	}

	fmt.Fprint(stdout, sched.ComparisonTable(results))
	if plan != nil || (fplan != nil && len(fplan.Emergencies) > 0) {
		for _, r := range results {
			fmt.Fprintf(stdout, "\nbudget windows — %s (cap utilisation %.1f%%):\n%s",
				r.Policy, r.CapUtilisation*100, r.WindowTable())
		}
	}
	if fplan != nil {
		fmt.Fprintln(stdout)
		for _, r := range results {
			fmt.Fprintf(stdout, "faults — %s: %d failures, %d repairs, %d kills, %d restarts, %d checkpoints, %d jobs lost, lost work %v, wasted energy %v, availability %.4f\n",
				r.Policy, r.Failures, r.Repairs, r.Kills, r.Restarts, r.Checkpoints, r.JobsLost,
				r.LostWork, r.WastedEnergy, r.Availability)
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(stdout, *jsonPath, results); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// faultPlan assembles the fault plan from -faults or -faultfile and the
// command-line knobs that override it; nil means no fault injection.
func faultPlan(spec, file string, set map[string]bool, mtbf, mttr float64, retries int, ckpt, restartCost float64) (fplan *faults.Plan, err error) {
	switch {
	case spec != "":
		if fplan, err = faults.ParsePlan(spec); err != nil {
			return nil, usageError{err}
		}
	case file != "":
		if fplan, err = readFile(file, faults.ReadCSV); err != nil {
			return nil, err
		}
	case set["mtbf"]:
		fplan = &faults.Plan{MaxRetries: retries}
	default:
		return nil, nil
	}
	if set["mtbf"] {
		// The command-line wildcard replaces a plan's wildcard entry;
		// exact per-pool rates from the plan still win (RatesFor).
		fplan.Rates = slices.DeleteFunc(fplan.Rates, func(r faults.PoolRates) bool { return r.Pool == "*" })
		fplan.Rates = append(fplan.Rates, faults.PoolRates{Pool: "*", MTBF: units.Seconds(mtbf), MTTR: units.Seconds(mttr)})
	}
	if set["retries"] {
		fplan.MaxRetries = retries
	}
	if set["ckpt"] {
		fplan.CheckpointEvery = units.Seconds(ckpt)
	}
	if set["restartcost"] {
		fplan.RestartCost = units.Seconds(restartCost)
	}
	if err := fplan.Validate(); err != nil {
		return nil, usageError{err}
	}
	return fplan, nil
}

// readFile parses the named file with parse.
func readFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return parse(f)
}

// writeAudit renders -audit through traceq: the summary, every job's
// why followed by the summary ("all"), or one job's why.
func writeAudit(w io.Writer, evs []telemetry.Event, audit string) error {
	var err error
	switch audit {
	case "summary":
		err = traceq.Summary(w, evs)
	case "all":
		for _, id := range traceq.Jobs(evs) {
			if err := traceq.Why(w, evs, id); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		err = traceq.Summary(w, evs)
	default:
		id, _ := strconv.Atoi(audit) // validated with the other flags
		err = traceq.Why(w, evs, id)
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w)
	return err
}

// writeJSON writes v as indented JSON to path, or to stdout for "-".
func writeJSON(stdout io.Writer, path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
