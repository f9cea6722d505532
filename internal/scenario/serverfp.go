package scenario

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/probe"
	"repro/internal/serverfp"
	"repro/internal/simnet"
)

// ServerFPCase is one active-fingerprinting verification cell: the
// serverfp battery runs over the case's world once per worker count,
// and every run must classify identically and beat the accuracy floor.
type ServerFPCase struct {
	// Seed drives the dataset, world, and engine jitter.
	Seed int64
	// Scale sizes the SNI population being fingerprinted.
	Scale float64
	// FaultRate injects transient failures on the battery path; the
	// retry engine must absorb them without the labels moving.
	FaultRate float64
}

// Name is the case's stable identifier in violations and JSON output.
func (c ServerFPCase) Name() string {
	return fmt.Sprintf("serverfp/seed%d/scale%g/fault%g", c.Seed, c.Scale, c.FaultRate)
}

// ServerFPCases is the fixed cell list: one clean cell and one faulty
// cell, each swept across worker counts 1, 4, and GOMAXPROCS.
func ServerFPCases() []ServerFPCase {
	return []ServerFPCase{
		{Seed: 1, Scale: 0.05},
		{Seed: 7, Scale: 0.12, FaultRate: 0.2},
	}
}

// ServerFPResult summarizes one serverfp cell for the JSON report.
type ServerFPResult struct {
	Case       string  `json:"case"`
	Targets    int     `json:"targets"`
	Accuracy   float64 `json:"accuracy"`
	Runs       int     `json:"runs"`
	Violations int     `json:"violations"`
}

// serverFPAccuracyFloor is the acceptance bar: at least 95% of
// evidence-bearing targets must classify to their true stack.
const serverFPAccuracyFloor = 0.95

// runServerFPCell fingerprints the case's world with the given worker
// bound. Each run rebuilds the world so per-(SNI, vantage) fault
// counters start fresh — shared mutable fault state across runs would
// make the comparison depend on execution order.
func runServerFPCell(ctx context.Context, c ServerFPCase, workers int) (*serverfp.Census, error) {
	ds := dataset.Generate(dataset.Config{Seed: c.Seed, Scale: c.Scale})
	snis := ds.SNIsByMinUsers(3)
	var faults *simnet.Faults
	if c.FaultRate > 0 {
		faults = &simnet.Faults{Seed: c.Seed + 2, TransientRate: c.FaultRate, Sleep: virtualSleep}
	}
	world := simnet.Build(simnet.Config{Seed: c.Seed + 1, SNIs: snis, Faults: faults, Workers: workers})
	// The same collapsed backoff Case.config applies.
	return serverfp.Fingerprint(ctx, world, snis, simnet.VantageNewYork, probe.Options{
		Workers:     workers,
		Seed:        c.Seed,
		BackoffBase: time.Nanosecond,
		BackoffMax:  time.Nanosecond,
	})
}

// RunServerFPCase executes one serverfp cell across worker counts 1, 4,
// and GOMAXPROCS, checking classification accuracy and whole-census
// determinism. Invariant breaks are data, not errors.
func RunServerFPCase(ctx context.Context, c ServerFPCase) (ServerFPResult, []Violation, error) {
	name := c.Name()
	res := ServerFPResult{Case: name}
	var vs []Violation
	defect := func(invariant, format string, args ...interface{}) {
		vs = append(vs, Violation{Case: name, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	base, err := runServerFPCell(ctx, c, workerCounts[0])
	if err != nil {
		return res, nil, err
	}
	res.Runs = 1
	for _, w := range workerCounts[1:] {
		got, err := runServerFPCell(ctx, c, w)
		if err != nil {
			return res, vs, err
		}
		res.Runs++
		if !reflect.DeepEqual(got.Targets, base.Targets) {
			for i := range base.Targets {
				if i < len(got.Targets) && got.Targets[i] != base.Targets[i] {
					defect("serverfp-determinism", "workers %d vs 1: target %s diverged: %+v vs %+v",
						w, base.Targets[i].SNI, got.Targets[i], base.Targets[i])
					break
				}
			}
			if len(got.Targets) != len(base.Targets) {
				defect("serverfp-determinism", "workers %d vs 1: %d targets vs %d",
					w, len(got.Targets), len(base.Targets))
			}
		}
	}

	res.Targets = len(base.Targets)
	res.Accuracy = base.Accuracy()
	if res.Accuracy < serverFPAccuracyFloor {
		defect("serverfp-accuracy", "accuracy %.3f below floor %.2f over %d targets",
			res.Accuracy, serverFPAccuracyFloor, res.Targets)
	}
	// Conservation: every probed SNI yields exactly one census target,
	// and targets with evidence carry a modeled label.
	labels := map[string]bool{"unknown": true}
	for _, st := range simnet.AllServerStacks() {
		labels[st.Name] = true
	}
	for _, t := range base.Targets {
		if !labels[t.Label] {
			defect("serverfp-conservation", "target %s carries unmodeled label %q", t.SNI, t.Label)
		}
		if t.Observed == 0 && t.Label != "unknown" {
			defect("serverfp-conservation", "target %s has no evidence but label %q", t.SNI, t.Label)
		}
	}
	res.Violations = len(vs)
	return res, vs, nil
}
