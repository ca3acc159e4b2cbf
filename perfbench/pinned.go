package main

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"
)

// inputsGolden pins the input digest of every workload at seeds 0-63.
// The scheduler inputs come from sched.SyntheticTrace, which is planned
// to grow new arrival families; a digest that no longer matches means
// the benchmark would silently measure different work, so the run
// fails instead. Regenerate with `go test -run TestInputsPinned -update`
// only together with a deliberate change of the workloads.
//
//go:embed inputs.golden
var inputsGolden string

// pinnedInputs parses inputs.golden: "workload seed digest" per line.
func pinnedInputs() (map[string]string, error) {
	pins := map[string]string{}
	for i, line := range strings.Split(strings.TrimSpace(inputsGolden), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 3 {
			return nil, fmt.Errorf("inputs.golden:%d: want \"workload seed digest\"", i+1)
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			return nil, fmt.Errorf("inputs.golden:%d: %w", i+1, err)
		}
		pins[f[0]+" "+f[1]] = f[2]
	}
	return pins, nil
}

// checkPinned fails when a pinned (workload, seed) generates inputs
// other than the pinned ones. Seeds outside the table are not checked.
func checkPinned(workload string, seed int64, digest string) error {
	pins, err := pinnedInputs()
	if err != nil {
		return err
	}
	want, ok := pins[fmt.Sprintf("%s %d", workload, seed)]
	if ok && want != digest {
		return fmt.Errorf("input drift: %s seed %d generates inputs %s, pinned %s; the input generators changed", workload, seed, digest, want)
	}
	return nil
}
