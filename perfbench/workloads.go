package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/capplan"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/fed"
	"repro/internal/figures"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/opcache"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Workload sizes. Every workload is a closed-loop batch: the benchmark
// hands the whole generated input to the program and waits for the
// result; job arrivals happen in simulated time.
const (
	// The backlog workload submits backlogBursts bursts of backlogJobs
	// jobs, backlogGap apart: each burst queues hundreds deep and
	// drains before the next, so one run averages over several
	// independently drawn bursts.
	backlogBursts = 12
	backlogJobs   = 256
	backlogGap    = units.Seconds(20)
	streamJobs    = 4096
	fedJobs       = 8192
	// figuresSeed is the paper figures' fixed seed: the figures
	// workload regenerates the figures the repository publishes, so
	// the workload seed does not vary it.
	figuresSeed = 42
)

// workload is one named benchmark input family.
type workload struct {
	name string
	// setup generates the inputs from the seed and constructs what runs
	// them. A non-nil tracer is wired into every extension point.
	setup func(seed int64, tr *tracer) (instance, error)
}

// instance is one set-up run of a workload, ready to run once.
type instance interface {
	// inputs digests the generated inputs.
	inputs() string
	// run executes the program; it is the timed part.
	run() error
	// assess checks the outputs and derives their metrics.
	assess() (outcome, error)
}

// outcome is what one run produced, reduced to the benchmark's terms.
type outcome struct {
	digest string // digest of the simulated outputs
	items  int    // jobs (or figure generators) submitted
	done   int    // items that completed
	failed int    // items rejected or lost

	energyPerJob float64 // J per completed item
	modelErr     float64 // mean relative model error
	modelWorst   float64 // worst per-application mean relative error

	energy   float64 // total simulated energy, J
	makespan float64 // simulated makespan, s
	p95Wait  float64 // p95 queue wait, simulated s

	results []sched.Result // every scheduler's result
	sites   int            // federated sites; 0 for a bare scheduler
	spills  int
	sinkOut int64 // NDJSON bytes written
}

var workloads = []workload{
	{name: "backlog", setup: setupBacklog},
	{name: "stream", setup: setupStream},
	{name: "fed", setup: setupFed},
	{name: "figures", setup: setupFigures},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- scheduler workloads ---

// schedRun is one bare-scheduler run.
type schedRun struct {
	s      *sched.Scheduler
	jobs   []sched.Job
	plan   string // cap plan and fault plan, for the input digest
	rec    *telemetry.Recorder
	sinkW  *countingWriter
	res    sched.Result
	closed error
}

func (r *schedRun) inputs() string { return digestInputs(r.jobs, r.plan) }

func (r *schedRun) run() error {
	res, err := r.s.Run(r.jobs)
	if err != nil {
		return err
	}
	r.res = res
	if r.rec != nil {
		r.closed = r.rec.Close()
	}
	return nil
}

func (r *schedRun) assess() (outcome, error) {
	if r.closed != nil {
		return outcome{}, fmt.Errorf("telemetry stream: %w", r.closed)
	}
	if err := checkSchedule(r.res, len(r.jobs)); err != nil {
		return outcome{}, err
	}
	o := outcome{
		items:        len(r.jobs),
		done:         r.res.Completed,
		failed:       r.res.Rejected + r.res.JobsLost,
		energyPerJob: float64(r.res.EnergyPerJob),
		energy:       float64(r.res.TotalEnergy),
		makespan:     float64(r.res.Makespan),
		p95Wait:      float64(r.res.P95Wait),
		results:      []sched.Result{r.res},
	}
	if r.sinkW != nil {
		o.sinkOut = r.sinkW.n
	}
	// The decision stream is output too: its length joins the digest.
	o.digest = digestJSON(struct {
		Result      sched.Result
		StreamBytes int64
	}{r.res, o.sinkOut})
	var err error
	o.modelErr, o.modelWorst, err = modelError(r.res.Jobs, machine.SystemG())
	return o, err
}

// systemG64 is the 64-rank SystemG cluster every scheduler workload
// runs on.
func systemG64(cfg sched.Config) sched.Config {
	cfg.Platform = machine.Homogeneous(machine.SystemG())
	cfg.Ranks = 64
	return cfg
}

// setupBacklog: arrivals far outpace service, so hundreds of jobs
// queue and admission dominates the run.
func setupBacklog(seed int64, tr *tracer) (instance, error) {
	jobs := bursts(seed)
	cfg := systemG64(sched.Config{
		Cap:    2500,
		Policy: tr.policy(sched.EEMax(), true),
		Obs:    tr.host(),
		Seed:   seed,
	})
	s, err := sched.New(cfg)
	if err != nil {
		return nil, err
	}
	return &schedRun{s: s, jobs: jobs, plan: "cap=2500"}, nil
}

// bursts concatenates backlogBursts synthetic traces, each drawn from
// its own seed derived from the workload seed and shifted backlogGap
// after the previous one.
func bursts(seed int64) []sched.Job {
	jobs := make([]sched.Job, 0, backlogBursts*backlogJobs)
	var offset units.Seconds
	for b := 0; b < backlogBursts; b++ {
		for _, j := range sched.SyntheticTrace(sched.TraceConfig{Jobs: backlogJobs, Seed: seed*backlogBursts + int64(b)}) {
			j.ID += b * backlogJobs
			j.Arrival += offset
			jobs = append(jobs, j)
		}
		offset += backlogGap
	}
	return jobs
}

// streamPlan steps the cap down for 5 s in every 20 s, short enough
// that the queue never builds a backlog.
func streamPlan() (*capplan.Plan, error) {
	var segs []capplan.Segment
	for t := 0; t < 600; t += 20 {
		segs = append(segs,
			capplan.Segment{Start: units.Seconds(t), Cap: 2500},
			capplan.Segment{Start: units.Seconds(t + 15), Cap: 2100})
	}
	return capplan.Steps(segs...)
}

// streamFaults fails every rank with a 1200 s mean time between
// failures; killed jobs restart from 10 s checkpoints.
func streamFaults() *faults.Plan {
	return &faults.Plan{
		Rates:           []faults.PoolRates{{Pool: "*", MTBF: 1200, MTTR: 60}},
		MaxRetries:      8,
		CheckpointEvery: 10,
		RestartCost:     1,
	}
}

// setupStream: a shallow queue under execution noise, a stepped cap,
// MTBF faults and the NDJSON decision stream.
func setupStream(seed int64, tr *tracer) (instance, error) {
	jobs := sched.SyntheticTrace(sched.TraceConfig{Jobs: streamJobs, Seed: seed, MeanInterarrival: 80 * units.Millisecond})
	plan, err := streamPlan()
	if err != nil {
		return nil, err
	}
	fp := streamFaults()
	w := &countingWriter{}
	rec := telemetry.New(tr.wrapSink(telemetry.NewNDJSONSink(w)))
	cfg := systemG64(sched.Config{
		Plan:      plan,
		Faults:    fp,
		Noise:     cluster.DefaultNoise(),
		Telemetry: rec,
		Policy:    tr.policy(sched.EEMax(), true),
		Obs:       tr.host(),
		Seed:      seed,
	})
	s, err := sched.New(cfg)
	if err != nil {
		return nil, err
	}
	return &schedRun{
		s: s, jobs: jobs, rec: rec, sinkW: w,
		plan: "plan=" + plan.String() + " faults=" + fp.String(),
	}, nil
}

// --- federation workload ---

type fedRun struct {
	cfg  fed.Config
	jobs []sched.Job
	res  fed.Result
}

func (r *fedRun) inputs() string {
	var b strings.Builder
	fmt.Fprintf(&b, "budget=%s", r.cfg.Budget)
	for _, s := range r.cfg.Sites {
		fmt.Fprintf(&b, " site=%s:%s", s.Name, s.Platform)
	}
	return digestInputs(r.jobs, b.String())
}

func (r *fedRun) run() error {
	res, err := fed.Run(r.cfg, r.jobs)
	r.res = res
	return err
}

func (r *fedRun) assess() (outcome, error) {
	res := r.res
	var jobs []sched.JobResult
	var waits []float64
	o := outcome{
		digest:       digestJSON(res),
		items:        len(r.jobs),
		done:         res.Completed,
		failed:       res.Rejected + res.JobsLost,
		energyPerJob: float64(res.EnergyPerJob),
		energy:       float64(res.TotalEnergy),
		makespan:     float64(res.Makespan),
		sites:        len(res.Sites),
		spills:       res.Spills,
	}
	routed := 0
	for _, s := range res.Sites {
		if err := checkSchedule(s.Result, s.Jobs); err != nil {
			return outcome{}, fmt.Errorf("site %s: %w", s.Site, err)
		}
		routed += s.Jobs
		o.results = append(o.results, s.Result)
		for _, j := range s.Result.Jobs {
			jobs = append(jobs, j)
			if j.State == sched.Done {
				waits = append(waits, float64(j.Wait))
			}
		}
	}
	if routed != len(r.jobs) {
		return outcome{}, fmt.Errorf("%d of %d jobs routed to a site", routed, len(r.jobs))
	}
	if err := checkBudget(r.cfg.Budget, res); err != nil {
		return outcome{}, err
	}
	o.p95Wait = quantile(waits, 0.95)
	var err error
	o.modelErr, o.modelWorst, err = modelError(jobs, machine.SystemG())
	return o, err
}

// fedBudget steps the global budget every 10 s of simulated time, so
// greedy-ee renegotiates the split at a barrier every window.
func fedBudget() (*capplan.Plan, error) {
	var segs []capplan.Segment
	for t := 0; t < 1300; t += 20 {
		segs = append(segs,
			capplan.Segment{Start: units.Seconds(t), Cap: 4200},
			capplan.Segment{Start: units.Seconds(t + 10), Cap: 3600})
	}
	return capplan.Steps(segs...)
}

func setupFed(seed int64, tr *tracer) (instance, error) {
	jobs := sched.SyntheticTrace(sched.TraceConfig{Jobs: fedJobs, Seed: seed, MeanInterarrival: 150 * units.Millisecond})
	budget, err := fedBudget()
	if err != nil {
		return nil, err
	}
	site := func(name string) fed.Site {
		return fed.Site{Name: name, Platform: machine.Platform{Pools: []machine.NodePool{{Spec: machine.SystemG(), Nodes: 32}}}}
	}
	cfg := fed.Config{
		Sites:  []fed.Site{site("east"), site("west")},
		Budget: budget,
		Split:  tr.wrapSplit(fed.GreedyEE()),
		Route:  tr.wrapRoute(fed.RouteEE()),
		Policy: tr.policy(sched.EEMax(), false),
		Seed:   seed,
	}
	if tr != nil {
		cfg.SiteObs = func(string) *obs.Host { return tr.host() }
	}
	return &fedRun{cfg: cfg, jobs: jobs}, nil
}

// --- figures workload ---

type figuresRun struct {
	opts figures.Options
	gens []figures.Generator
	tr   *tracer
	figs []figures.Figure
}

func (r *figuresRun) inputs() string {
	var b strings.Builder
	fmt.Fprintf(&b, "quick=%v seed=%d", r.opts.Quick, r.opts.Seed)
	for _, g := range r.gens {
		fmt.Fprintf(&b, " %s", g.ID)
	}
	return digestString(b.String())
}

func (r *figuresRun) run() error {
	r.figs = r.figs[:0]
	for _, g := range r.gens {
		fig, err := r.tr.runGenerator(g, r.opts)
		if err != nil {
			return fmt.Errorf("figure %s: %w", g.ID, err)
		}
		r.figs = append(r.figs, fig)
	}
	return nil
}

func (r *figuresRun) assess() (outcome, error) {
	o := outcome{items: len(r.gens)}
	h := sha256.New()
	var runs int
	for _, f := range r.figs {
		if strings.TrimSpace(f.CSV) == "" {
			return outcome{}, fmt.Errorf("figure %s: empty CSV", f.ID)
		}
		o.done++
		fmt.Fprintf(h, "%s\n%s", f.ID, f.CSV)
		var col string
		switch f.ID {
		case "2a", "2b":
			col = "energy_j"
		case "3":
			col = "measured_j"
		}
		if col != "" {
			e, err := csvColumn(f.CSV, col)
			if err != nil {
				return outcome{}, fmt.Errorf("figure %s: %w", f.ID, err)
			}
			for _, v := range e {
				o.energy += v
			}
			runs += len(e)
		}
		switch f.ID {
		case "3":
			errs, err := csvColumn(f.CSV, "rel_error")
			if err != nil {
				return outcome{}, fmt.Errorf("figure 3: %w", err)
			}
			o.modelWorst = maxOf(errs)
		case "4":
			errs, err := csvColumn(f.CSV, "rel_error")
			if err != nil {
				return outcome{}, fmt.Errorf("figure 4: %w", err)
			}
			o.modelErr = mean(errs)
		}
	}
	if o.done != len(r.gens) {
		return outcome{}, fmt.Errorf("%d of %d figures generated", o.done, len(r.gens))
	}
	if runs > 0 {
		o.energyPerJob = o.energy / float64(runs)
	}
	o.digest = short(h)
	return o, nil
}

func setupFigures(_ int64, tr *tracer) (instance, error) {
	return setupFiguresWith(runtime.NumCPU(), tr)
}

// setupFiguresWith builds the paper-scale figure set at a worker count.
func setupFiguresWith(workers int, tr *tracer) (*figuresRun, error) {
	cache, err := opcache.New(machine.SystemG())
	if err != nil {
		return nil, err
	}
	return &figuresRun{
		opts: figures.Options{Seed: figuresSeed, Workers: workers, Cache: cache},
		gens: figures.All(),
		tr:   tr,
	}, nil
}

// --- output checks ---

// checkSchedule verifies one schedule: no sample over the cap, every
// job terminal, and energy conserved (attributed + parked = metered).
func checkSchedule(res sched.Result, submitted int) error {
	if res.CapViolations != 0 {
		return fmt.Errorf("%d cap violations", res.CapViolations)
	}
	if got := res.Completed + res.Rejected + res.JobsLost; got != submitted || len(res.Jobs) != submitted {
		return fmt.Errorf("%d of %d jobs reached a terminal state", got, submitted)
	}
	sum := float64(res.ParkedEnergy)
	for _, j := range res.Jobs {
		sum += float64(j.Energy)
	}
	if total := float64(res.TotalEnergy); math.Abs(sum-total) > 1e-9*math.Abs(total) {
		return fmt.Errorf("energy not conserved: attributed+parked %.6f J, metered %.6f J", sum, total)
	}
	return nil
}

// checkBudget verifies Σ site caps ≤ the global budget at every
// breakpoint of the budget and of every site's final plan.
func checkBudget(budget *capplan.Plan, res fed.Result) error {
	plans := make([]*capplan.Plan, len(res.Sites))
	var times []units.Seconds
	for _, sg := range budget.Segments() {
		times = append(times, sg.Start)
	}
	for i, s := range res.Sites {
		p, err := capplan.ParsePlan(s.Result.Plan)
		if err != nil {
			return fmt.Errorf("site %s plan: %w", s.Site, err)
		}
		plans[i] = p
		for _, sg := range p.Segments() {
			times = append(times, sg.Start)
		}
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	for _, t := range times {
		var sum float64
		for _, p := range plans {
			sum += float64(p.CapAt(t))
		}
		if g := float64(budget.CapAt(t)); sum > g*(1+1e-9) {
			return fmt.Errorf("site caps %.3f W exceed the global budget %.3f W at t=%gs", sum, g, float64(t))
		}
	}
	return nil
}

// modelError compares each job's model-predicted energy at its admitted
// operating point with the energy the simulator attributed to it. It
// returns the mean relative error over completed jobs and the worst
// per-application mean. Jobs restarted after a fault are left out:
// their final attempt ran only the work after the last checkpoint.
func modelError(jobs []sched.JobResult, spec machine.Spec) (meanErr, worstApp float64, err error) {
	cache, err := opcache.New(spec)
	if err != nil {
		return 0, 0, err
	}
	byApp := map[string][]float64{}
	var all []float64
	for _, j := range jobs {
		if j.State != sched.Done || j.Restarts > 0 || j.Energy <= 0 {
			continue
		}
		pred, err := cache.PointAt(j.ID, j.Vector, j.N, j.P, cache.LadderIndex(j.StartFreq))
		if err != nil {
			return 0, 0, fmt.Errorf("job %d: %w", j.ID, err)
		}
		e := math.Abs(float64(pred.Ep)-float64(j.Energy)) / float64(j.Energy)
		all = append(all, e)
		byApp[j.Vector.Name] = append(byApp[j.Vector.Name], e)
	}
	apps := make([]string, 0, len(byApp))
	for a := range byApp {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	for _, a := range apps {
		worstApp = math.Max(worstApp, mean(byApp[a]))
	}
	return mean(all), worstApp, nil
}

// csvColumn returns the numeric values of one named column.
func csvColumn(csv, name string) ([]float64, error) {
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	col := -1
	for i, h := range strings.Split(lines[0], ",") {
		if h == name {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("no %q column", name)
	}
	var out []float64
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		if col >= len(f) {
			return nil, fmt.Errorf("short row %q", l)
		}
		v, err := strconv.ParseFloat(f[col], 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// --- digests ---

func digestString(s string) string {
	h := sha256.New()
	h.Write([]byte(s))
	return short(h)
}

// short renders a digest as its first 16 hex digits.
func short(h hash.Hash) string {
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// digestJSON digests a result through its JSON form.
func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable:" + err.Error()
	}
	return digestString(string(b))
}

// digestInputs digests a job list and the plans it runs under.
func digestInputs(jobs []sched.Job, plans string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", plans)
	for _, j := range jobs {
		fmt.Fprintf(h, "%d %s %x %d %d %d %x %x\n", j.ID, j.Vector.Name, math.Float64bits(j.N), j.MinWidth, j.MaxWidth, j.Priority,
			math.Float64bits(float64(j.Arrival)), math.Float64bits(float64(j.Deadline)))
	}
	return short(h)
}
