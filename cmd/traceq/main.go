// Command traceq queries NDJSON decision traces offline (the logs
// schedrun -events and fedrun -events write). It is a thin CLI over
// internal/traceq:
//
//	traceq why <job> <trace.ndjson>     one job's causal admission chain
//	traceq critpath <trace.ndjson>      longest dependency chain to makespan
//	traceq windows <trace.ndjson>       per-cap-window rollup table
//	traceq merge [site=]a.ndjson ...    deterministic cross-site merge (NDJSON on stdout)
//
// Exit codes: 0 success, 1 I/O or query error, 2 usage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/traceq"
)

const usageText = `usage: traceq <command> [args]

commands:
  why <job> <trace.ndjson>      explain one job: lifecycle, ranked block
                                reasons, and the causal admission chain
  critpath <trace.ndjson>       the longest wait/run dependency chain
                                ending at the last completion
  windows <trace.ndjson>        per-cap-window rollup table
  merge [site=]a.ndjson [site=]b.ndjson ...
                                merge traces by sim time into one NDJSON
                                stream on stdout, stamping Site from the
                                optional site= label (default: file base
                                name) on events that carry none
`

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one traceq command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("traceq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprint(stderr, usageText) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format, a...)
		fs.Usage()
		return 2
	}
	if fs.NArg() == 0 {
		return usage("")
	}
	cmd, args := fs.Arg(0), fs.Args()[1:]
	var evs []telemetry.Event
	var err error
	switch {
	case cmd == "why" && len(args) == 2:
		job, aerr := strconv.Atoi(args[0])
		if aerr != nil {
			return usage("traceq: job must be an integer, got %q\n", args[0])
		}
		if evs, err = load(args[1]); err == nil {
			err = traceq.Why(stdout, evs, job)
		}
	case cmd == "critpath" && len(args) == 1:
		if evs, err = load(args[0]); err == nil {
			err = traceq.Critpath(stdout, evs)
		}
	case cmd == "windows" && len(args) == 1:
		if evs, err = load(args[0]); err == nil {
			err = traceq.Windows(stdout, evs)
		}
	case cmd == "merge" && len(args) > 0:
		var traces []traceq.NamedTrace
		for _, arg := range args {
			site, path := "", arg
			if i := strings.Index(arg, "="); i > 0 && !strings.Contains(arg[:i], string(os.PathSeparator)) {
				site, path = arg[:i], arg[i+1:]
			}
			if site == "" {
				site = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
			}
			if evs, err = load(path); err != nil {
				break
			}
			traces = append(traces, traceq.NamedTrace{Site: site, Events: evs})
		}
		if err == nil {
			err = traceq.Merge(stdout, traces)
		}
	case cmd == "why" || cmd == "critpath" || cmd == "windows" || cmd == "merge":
		return usage("")
	default:
		return usage("traceq: unknown command %q\n", cmd)
	}
	if err != nil {
		fmt.Fprintf(stderr, "traceq: %v\n", err)
		return 1
	}
	return 0
}

func load(path string) ([]telemetry.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := telemetry.DecodeNDJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}
