// Package scenario is the study's cross-cutting verification harness:
// it generates a configuration matrix (seed × scale × workers ×
// fault-rate × vantage set), runs the full core pipeline over every
// cell, and checks properties no single-package unit test can see:
//
//   - metamorphic invariances — the rendered report must be
//     byte-identical across worker counts and with observability on or
//     off, and exactly reproducible when a configuration is rerun;
//   - conservation laws — probe outcomes partition the job set,
//     per-vendor device counts sum to the population, the ProbeStats
//     report table and the metrics registry both reconcile with the
//     engine's own Stats;
//   - monotone growth — device, record, and SNI counts never shrink as
//     Scale grows for a fixed seed;
//   - tolerance bands — at paper scale the dataset's aggregates stay
//     within declared bounds of the published numbers;
//   - wire differentials — ClientHello records sampled from each run
//     are cross-checked against crypto/tls via the tlswire oracle;
//   - golden snapshots — the paper-scale report is compared against a
//     checked-in snapshot, regenerated with Update.
//
// cmd/iotcheck is the CLI front end; the CI scenario job runs the short
// matrix under the race detector.
package scenario

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/simnet"
)

// virtualSleep stands in for the fault injector's stall waits: it
// returns immediately (honouring cancellation) so a matrix sweep never
// blocks on simulated time.
func virtualSleep(ctx context.Context, _ time.Duration) error {
	return ctx.Err()
}

// Case is one cell of the verification matrix. Every case is executed
// at least twice — once with Workers and observability attached, once
// with AltWorkers and observability off — and the two renderings must
// agree byte for byte.
type Case struct {
	// Seed drives the dataset and world generators.
	Seed int64
	// Scale multiplies the device population (1.0 = paper scale).
	Scale float64
	// Workers is the base run's worker bound; AltWorkers is the variant
	// run's. They must differ for the metamorphic check to bite.
	Workers    int
	AltWorkers int
	// FaultRate is the transient-failure probability injected on the
	// probe path (0 disables fault injection entirely).
	FaultRate float64
	// Vantages is the probing locations, primary first; empty means the
	// paper's three.
	Vantages []simnet.Vantage
	// MinSNIUsers is the SNI popularity filter (paper: 3).
	MinSNIUsers int
	// Tolerance additionally checks the paper's published aggregates;
	// only meaningful at Scale 1.
	Tolerance bool
}

// Name is the case's stable identifier in violations and JSON output.
func (c Case) Name() string {
	return fmt.Sprintf("seed%d/scale%g/w%dv%d/fault%g/vantages%d",
		c.Seed, c.Scale, c.Workers, c.AltWorkers, c.FaultRate, len(c.vantages()))
}

func (c Case) vantages() []simnet.Vantage {
	if len(c.Vantages) > 0 {
		return c.Vantages
	}
	return simnet.Vantages()
}

// config assembles the core.Config for one run of the case. Backoff
// waits are collapsed to a nanosecond and the injected stall sleeps are
// virtual, so fault-rate cases spend no real time waiting. The circuit
// breaker stays armed: the probe engine gives each host its own breaker
// for the sweep, so which attempts fast-fail does not depend on the
// worker count.
func (c Case) config(workers int, tracer *obs.Tracer, metrics *obs.Registry) core.Config {
	cfg := core.Config{
		Seed:        c.Seed,
		Scale:       c.Scale,
		MinSNIUsers: c.MinSNIUsers,
		Workers:     workers,
		Vantages:    c.Vantages,
		Tracer:      tracer,
		Metrics:     metrics,
		Probe: probe.Options{
			BackoffBase: time.Nanosecond,
			BackoffMax:  time.Nanosecond,
		},
	}
	if c.MinSNIUsers == 0 {
		cfg.MinSNIUsers = core.DefaultConfig().MinSNIUsers
	}
	if c.FaultRate > 0 {
		cfg.Faults = &simnet.Faults{
			Seed:          c.Seed + 2,
			TransientRate: c.FaultRate,
			Sleep:         virtualSleep,
		}
	}
	return cfg
}

// Matrix spans the verification space: the cross product of its axes,
// plus one paper-scale tolerance case when ToleranceCase is set.
type Matrix struct {
	Seeds  []int64
	Scales []float64
	// WorkerPairs lists (base, variant) worker bounds; each pair is one
	// axis value, and both runs of a case use one pair.
	WorkerPairs [][2]int
	FaultRates  []float64
	// VantageSets lists the vantage selections to sweep; a nil entry
	// means all of simnet.Vantages().
	VantageSets [][]simnet.Vantage
	MinSNIUsers int
	// ToleranceCase appends the paper-scale run (default seed, Scale 1)
	// with tolerance-band and golden-snapshot checks.
	ToleranceCase bool
	// ServiceCells appends the service-mode cells: the resident daemon's
	// ingest path checked for conservation, deterministic shedding, and
	// drained-report equivalence with the batch pipeline.
	ServiceCells bool
	// ServerFPCells appends the active-fingerprinting cells: the serverfp
	// battery checked for classification accuracy and census determinism
	// across worker counts.
	ServerFPCells bool
	// TimelineCells appends the firmware-drift longitudinal cells: the
	// pipeline swept over an asof ladder and checked for monotone 1.3
	// adoption, population conservation in every adoption row, and
	// per-epoch report determinism across worker counts.
	TimelineCells bool
}

// Short is the CI matrix: 2 seeds × 3 scales × 2 worker pairs ×
// 2 fault rates × 2 vantage sets = 48 cases, plus the paper-scale
// tolerance case. Small scales keep the sweep fast enough for -race.
func Short() Matrix {
	return Matrix{
		Seeds:         []int64{1, 7},
		Scales:        []float64{0.05, 0.12, 0.25},
		WorkerPairs:   [][2]int{{1, 4}, {4, 1}},
		FaultRates:    []float64{0, 0.2},
		VantageSets:   [][]simnet.Vantage{nil, {simnet.VantageNewYork}},
		MinSNIUsers:   3,
		ToleranceCase: true,
		ServiceCells:  true,
		ServerFPCells: true,
		TimelineCells: true,
	}
}

// Cases expands the matrix into its case list, tolerance case last.
// Expansion order is fixed (seed outermost, vantage set innermost) so
// case indices — and thus the rerun cadence — are stable.
func (m Matrix) Cases() []Case {
	var cases []Case
	for _, seed := range m.Seeds {
		for _, scale := range m.Scales {
			for _, wp := range m.WorkerPairs {
				for _, fr := range m.FaultRates {
					for _, vs := range m.VantageSets {
						cases = append(cases, Case{
							Seed:        seed,
							Scale:       scale,
							Workers:     wp[0],
							AltWorkers:  wp[1],
							FaultRate:   fr,
							Vantages:    vs,
							MinSNIUsers: m.MinSNIUsers,
						})
					}
				}
			}
		}
	}
	if m.ToleranceCase {
		def := core.DefaultConfig()
		cases = append(cases, Case{
			Seed:        def.Seed,
			Scale:       def.Scale,
			Workers:     4,
			AltWorkers:  2,
			FaultRate:   0,
			MinSNIUsers: def.MinSNIUsers,
			Tolerance:   true,
		})
	}
	return cases
}
