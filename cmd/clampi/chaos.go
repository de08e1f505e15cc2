package main

import (
	"fmt"
	"io"

	"clampi/internal/experiments"
	"clampi/internal/fault"
	"clampi/internal/obsv"
)

// runChaos runs the seeded fault-injection suite (DESIGN.md §11): every
// selected application under every selected fault scenario, checking
// that the results stay bit-identical to a fault-free run and that a
// same-seed rerun injects the identical fault sequence. It fails if any
// cell does not. -scenario-file loads one custom scenario (the JSON form
// of fault.Scenario) instead of the canned suite.
func runChaos(args []string, stdout, stderr io.Writer) error {
	var scenarioNames []string
	for _, sc := range fault.Canned() {
		scenarioNames = append(scenarioNames, sc.Name)
	}
	apps := experiments.ChaosApps()

	fs, s := newFlags("chaos", stderr, modeFlag|obsvFlags)
	app := fs.String("app", "all", "application to run: "+oneOf(apps))
	scenario := fs.String("scenario", "all", "canned scenario: "+oneOf(scenarioNames))
	scenarioFile := fs.String("scenario-file", "", "load a custom scenario from this JSON file (overrides -scenario)")
	seed := fs.Int64("seed", 42, "chaos seed: scenario RNGs derive from it, so a seed reproduces the exact fault sequence")
	p := fs.Int("p", 4, "processing elements P")
	if _, err := s.parse(fs, args); err != nil {
		return err
	}

	var selected []string // nil runs every app
	if *app != "all" {
		for _, a := range apps {
			if a == *app {
				selected = []string{a}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown app %q (want %s)", *app, oneOf(apps))
		}
	}

	var scenarios []fault.Scenario // nil runs the canned suite
	switch {
	case *scenarioFile != "":
		sc, err := fault.LoadScenario(*scenarioFile)
		if err != nil {
			return err
		}
		scenarios = []fault.Scenario{sc}
	case *scenario != "all":
		sc, ok := fault.ByName(*scenario)
		if !ok {
			return fmt.Errorf("unknown scenario %q (want %s)", *scenario, oneOf(scenarioNames))
		}
		scenarios = []fault.Scenario{sc}
	}

	rows, tbl, err := experiments.ChaosBench(*p, *seed, selected, scenarios)
	if err := emit(stdout, tbl, err); err != nil {
		return err
	}

	if s.metrics != "" {
		// Merge the live per-cache registries, then add one gauge set
		// per (app, scenario) cell so the chaos totals land in the same
		// export file.
		reg := experiments.MetricsSnapshot()
		for _, row := range rows {
			experiments.PublishFleetStats(reg, row.App+"/"+row.Scenario, row.Stats)
		}
		if err := obsv.WriteMetricsFile(s.metrics, reg); err != nil {
			return fmt.Errorf("observability: %w", err)
		}
	}
	if err := experiments.WriteObservability("", s.trace); err != nil {
		return fmt.Errorf("observability: %w", err)
	}

	failed := 0
	for _, row := range rows {
		if !row.OK() {
			failed++
			fmt.Fprintf(stderr, "FAIL %s/%s: match=%v replay=%v (%v)\n",
				row.App, row.Scenario, row.Match, row.Replay, row.Faults)
		}
	}
	if failed > 0 {
		return fmt.Errorf("chaos: %d of %d cells failed", failed, len(rows))
	}
	return nil
}
