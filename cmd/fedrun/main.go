// Command fedrun races federated budget-split and job-routing policies
// head to head on one synthetic trace: the same jobs, the same sites,
// the same global power budget — only the federation policy pair
// differs. Each run routes every job to a site through the ingest
// frontend, executes all site schedulers concurrently under the caps
// the split policy carved from the global budget, and merges the
// per-site accounting into one federated result (internal/fed).
//
// Sites are named platform specs: -sites "east=systemg:16;west=dori:16"
// builds two clusters from the machine presets (pool lists like
// systemg:32,dori:32 work per site too). Optional knobs attach per
// site by name: -carbon "east=0:420,2:120;west=0:120,2:420" gives each
// site a carbon-intensity signal in gCO₂eq/kWh (sampled step-wise, the
// capplan.FromSignal contract), and -local "west=0:2000" clamps a site
// under its own facility ceiling.
//
// The global budget is -budget "0:1800,2:1200,4:1800" (a capplan spec;
// a mid-trace squeeze in this example) or a constant -cap watts. The
// split policy divides every budget window across sites — static-share
// by weights, greedy-ee by live operating mix (re-negotiated at plan
// breakpoints through sim-time barriers), carbon-min away from
// carbon-dirty windows — with -lambda fixing the guaranteed fraction
// every site keeps regardless of policy. The route policy assigns jobs
// to sites: ee by quoted energy-efficiency with backlog spilling, jct
// by predicted completion, rr round-robin. -split all / -route all
// sweep every combination into one comparison table.
//
// Mirroring schedrun's conventions: -json dumps machine-readable
// results ("-" = stdout), -detail prints per-site and routing tables,
// and the exit status encodes the run's guarantees — 2 for usage
// errors (reported before anything is printed on stdout), 1 for I/O
// and run errors, 3 when any site violated its cap in any combination,
// 4 when any job was permanently lost (violations take precedence).
//
// Observability follows the same single-run rule as schedrun: -events
// PREFIX (needs one -split and one -route) writes each site's decision
// stream to PREFIX-<site>.ndjson — every event stamped with its site,
// so `traceq merge` reassembles the federation's global timeline — plus
// the frontend's routing stream to PREFIX-route.ndjson. -status ADDR
// serves live per-site snapshots (JSON at /status.json, Prometheus text
// at /metrics) while the sites run.
//
// Usage:
//
//	fedrun -jobs 32 -sites "east=systemg:16;west=systemg:16"
//	       [-budget 0:1800,2:1200,4:1800 | -cap 1800]
//	       [-carbon "east=0:420,2:120;west=0:120,2:420"]
//	       [-local "west=0:2000"] [-split all] [-route all]
//	       [-lambda 0.5] [-batch S] [-spill S] [-policy ee-max]
//	       [-seed 1] [-detail] [-events PREFIX] [-status :8080]
//	       [-json out.json]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/capplan"
	"repro/internal/fed"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one fedrun command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	results, err := federate(args, stdout, stderr)
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
var errFlags = usageError{errors.New("fedrun: bad flags")}

// status prints a warning for every broken guarantee and maps the
// results to the exit status, as schedrun does: 3 when any site
// exceeded its cap, else 4 when any job was permanently lost, else 0.
func status(w io.Writer, results []fed.Result) int {
	code := 0
	for _, r := range results {
		if r.CapViolations > 0 {
			fmt.Fprintf(w, "\nWARNING: %s × %s exceeded a site cap in %d samples\n", r.Split, r.Route, r.CapViolations)
			code = 3
		}
		if r.JobsLost > 0 {
			fmt.Fprintf(w, "\nWARNING: %s × %s permanently lost %d jobs to failures\n", r.Split, r.Route, r.JobsLost)
			if code == 0 {
				code = 4
			}
		}
	}
	return code
}

// federate parses the command line, runs every selected split × route
// combination and prints the reports; the results feed the exit status.
func federate(args []string, stdout, stderr io.Writer) (results []fed.Result, err error) {
	fs := flag.NewFlagSet("fedrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobs := fs.Int("jobs", 32, "number of jobs in the synthetic trace")
	sitesSpec := fs.String("sites", "east=systemg:16;west=systemg:16", `federation sites as name=platform pairs, e.g. "east=systemg:16;west=dori:16"`)
	capW := fs.Float64("cap", 1800, "constant global power budget in watts")
	budget := fs.String("budget", "", "time-varying global budget as start:watts windows, e.g. 0:1800,2:1200,4:1800 (excludes -cap)")
	carbon := fs.String("carbon", "", `per-site carbon signals as name=t:val,... pairs, e.g. "east=0:420,2:120;west=0:120,2:420" (gCO₂eq/kWh)`)
	local := fs.String("local", "", `per-site local cap ceilings as name=planspec pairs, e.g. "west=0:2000"`)
	split := fs.String("split", "all", "budget-split policy: static-share, greedy-ee, carbon-min, or all")
	route := fs.String("route", "all", "job-route policy: ee, jct, rr, or all")
	lambda := fs.Float64("lambda", 0, "guaranteed fraction λ of every window divided by static shares (0 = the 0.5 default)")
	batch := fs.Float64("batch", 0, "ingest batching period in seconds (0 routes at exact arrivals)")
	spill := fs.Float64("spill", 0, "backlog threshold in seconds for the ee route's spill rule (0 = the 1 s default, negative disables)")
	slack := fs.Float64("slack", 0, "eligibility slack: a site must quote within this factor of the fastest site (0 = the 1.3 default; raise it to route onto much slower platforms)")
	policy := fs.String("policy", "ee-max", "site scheduler policy: fifo, ee-max, fair-share, or backfill+<name>")
	seed := fs.Int64("seed", 1, "trace and simulation seed")
	detail := fs.Bool("detail", false, "print per-site and routing tables for every combination")
	jsonPath := fs.String("json", "", `write machine-readable results as JSON to this file ("-" = stdout)`)
	eventsPrefix := fs.String("events", "", "write per-site decision streams as NDJSON to PREFIX-<site>.ndjson plus the routing stream to PREFIX-route.ndjson (needs a single -split and -route)")
	statusAddr := fs.String("status", "", "serve live per-site run status over HTTP on this address (e.g. :8080): JSON at /status.json, Prometheus text at /metrics")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, errFlags
	}
	capSet := false
	fs.Visit(func(f *flag.Flag) { capSet = capSet || f.Name == "cap" })
	if *jobs < 0 {
		return nil, usagef("-jobs %d must not be negative", *jobs)
	}

	var plan *capplan.Plan
	if *budget != "" {
		if capSet {
			return nil, usagef("-cap cannot combine with -budget; put the constant in the plan's first window instead")
		}
		plan, err = capplan.ParsePlan(*budget)
	} else {
		plan, err = capplan.Steps(capplan.Segment{Start: 0, Cap: units.Watts(*capW)})
	}
	if err != nil {
		return nil, usageError{err}
	}

	sites, err := parseSites(*sitesSpec, *carbon, *local)
	if err != nil {
		return nil, err
	}

	pol, err := sched.PolicyByName(*policy)
	if err != nil {
		return nil, usageError{err}
	}
	splits, err := pickPolicies(*split, "-split", "static-share", fed.SplitPolicies())
	if err != nil {
		return nil, err
	}
	routes, err := pickPolicies(*route, "-route", "ee", fed.RoutePolicies())
	if err != nil {
		return nil, err
	}

	// Per-site traces and live status label by site name; sweeping
	// several combinations would interleave streams under the same
	// labels, so both demand a single federated run.
	obsOn := *eventsPrefix != "" || *statusAddr != ""
	if obsOn && (len(splits) > 1 || len(routes) > 1) {
		return nil, usagef("-events/-status record a single federated run; select one -split and one -route")
	}
	cfg := fed.Config{
		Sites:         sites,
		Budget:        plan,
		GuaranteeFrac: *lambda,
		BatchEvery:    units.Seconds(*batch),
		SpillAfter:    units.Seconds(*spill),
		PerfSlack:     *slack,
		Policy:        pol,
		Seed:          *seed,
	}
	// One recorder and one obs.Host per site: sites run on their own
	// goroutines and must not share either. All files are closed on
	// return, and a failed Close fails the run.
	var recs []*telemetry.Recorder
	var files []*os.File
	defer func() {
		for _, f := range files {
			err = errors.Join(err, f.Close())
		}
	}()
	ndjson := func(name string) (telemetry.Sink, error) {
		f, err := os.Create(fmt.Sprintf("%s-%s.ndjson", *eventsPrefix, name))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		return telemetry.NewNDJSONSink(f), nil
	}
	var srv *obs.StatusServer
	if *statusAddr != "" {
		if srv, err = obs.ListenStatus(*statusAddr); err != nil {
			return nil, err
		}
		defer srv.Close()
	}
	if obsOn {
		siteRecs := map[string]*telemetry.Recorder{}
		hosts := map[string]*obs.Host{}
		for _, site := range sites {
			rec := telemetry.New()
			if *eventsPrefix != "" {
				sink, err := ndjson(site.Name)
				if err != nil {
					return nil, err
				}
				rec.AddSink(telemetry.WithSite(site.Name, sink))
			}
			if srv != nil {
				hosts[site.Name] = obs.NewHost()
				rec.AddSink(obs.NewPublisher(srv, site.Name, hosts[site.Name], rec.Metrics(), 0))
			}
			siteRecs[site.Name] = rec
			recs = append(recs, rec)
		}
		cfg.SiteTelemetry = func(site string) *telemetry.Recorder { return siteRecs[site] }
		if srv != nil {
			cfg.SiteObs = func(site string) *obs.Host { return hosts[site] }
		}
		if *eventsPrefix != "" {
			sink, err := ndjson("route")
			if err != nil {
				return nil, err
			}
			cfg.Telemetry = telemetry.New(sink)
			recs = append(recs, cfg.Telemetry)
		}
	}
	if srv != nil {
		fmt.Fprintf(stdout, "status: http://%s (JSON at /status.json, Prometheus at /metrics)\n\n", srv.Addr())
	}

	// The default trace (jobs are moldable, so widths clamp to each
	// site's pools) keeps a 1-site fedrun on the same trace schedrun
	// generates, so a 1-site federation reduces to the bare scheduler.
	trace := sched.SyntheticTrace(sched.TraceConfig{Jobs: *jobs, Seed: *seed})
	fmt.Fprintf(stdout, "trace: %d jobs across %d sites under global budget %s (seed %d)\n\n",
		*jobs, len(sites), plan, *seed)

	for _, sp := range splits {
		for _, rt := range routes {
			cfg.Split, cfg.Route = fed.SplitPolicies()[sp](), fed.RoutePolicies()[rt]()
			res, err := fed.Run(cfg, trace)
			if err != nil {
				return nil, err
			}
			results = append(results, res)
			if *detail {
				fmt.Fprintf(stdout, "== %s × %s ==\n%s\nrouting:\n%s\n", res.Split, res.Route, res, res.RoutingTable())
			}
		}
	}
	for _, rec := range recs {
		if err := errors.Join(rec.Close(), rec.Err()); err != nil {
			return nil, err
		}
	}

	fmt.Fprint(stdout, fed.ComparisonTable(results))
	if *jsonPath != "" {
		if err := writeJSON(stdout, *jsonPath, results); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// parseSites builds the site list from "name=platform;..." pairs,
// preserving command-line order (site order is part of the federation's
// deterministic identity), then attaches the per-site carbon signals
// and local cap ceilings by site name.
func parseSites(spec, carbon, local string) ([]fed.Site, error) {
	var sites []fed.Site
	err := pairs("-sites", spec, func(name, pl string) error {
		platform, err := machine.ParsePlatform(pl)
		sites = append(sites, fed.Site{Name: name, Platform: platform})
		return err
	})
	if err == nil && len(sites) == 0 {
		err = usagef("-sites names no sites")
	}
	site := func(name string) (*fed.Site, error) {
		for i := range sites {
			if sites[i].Name == name {
				return &sites[i], nil
			}
		}
		return nil, fmt.Errorf("unknown site %q", name)
	}
	if err == nil {
		err = pairs("-carbon", carbon, func(name, spec string) error {
			s, err := site(name)
			if err == nil {
				s.Carbon, err = parseSignal(spec)
			}
			return err
		})
	}
	if err == nil {
		err = pairs("-local", local, func(name, spec string) error {
			s, err := site(name)
			if err == nil {
				s.Local, err = capplan.ParsePlan(spec)
			}
			return err
		})
	}
	return sites, err
}

// pairs calls each on every "name=spec" entry of a ";"-separated flag
// value.
func pairs(flagName, val string, each func(name, spec string) error) error {
	for _, part := range strings.Split(val, ";") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		name, spec, ok := strings.Cut(part, "=")
		if !ok {
			return usagef("%s entry %q is not name=spec", flagName, part)
		}
		if err := each(strings.TrimSpace(name), strings.TrimSpace(spec)); err != nil {
			return usagef("%s %s: %v", flagName, strings.TrimSpace(name), err)
		}
	}
	return nil
}

// parseSignal parses a "t:value,..." sample list.
func parseSignal(spec string) ([]capplan.Sample, error) {
	var signal []capplan.Sample
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		tStr, vStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("sample %q is not t:value", part)
		}
		t, err0 := strconv.ParseFloat(strings.TrimSpace(tStr), 64)
		v, err1 := strconv.ParseFloat(strings.TrimSpace(vStr), 64)
		if err0 != nil || err1 != nil {
			return nil, fmt.Errorf("bad sample %q", part)
		}
		signal = append(signal, capplan.Sample{T: units.Seconds(t), Value: v})
	}
	return signal, capplan.ValidateSignal(signal)
}

// pickPolicies resolves a policy flag against a registry: a single
// name, or "all" for every name, sorted with the baseline leading the
// sweep.
func pickPolicies[V any](val, flagName, baseline string, registry map[string]V) ([]string, error) {
	names := slices.Sorted(maps.Keys(registry))
	sort.SliceStable(names, func(a, b int) bool { return names[a] == baseline && names[b] != baseline })
	if val == "all" {
		return names, nil
	}
	if slices.Contains(names, val) {
		return []string{val}, nil
	}
	return nil, usagef("%s %q: have %s, all", flagName, val, strings.Join(names, ", "))
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
