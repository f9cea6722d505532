package scenario

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/probe"
)

// TimelineCase is one longitudinal verification cell: the full pipeline
// runs at each epoch of a fixed asof ladder, and the firmware-drift
// timeline must behave like a timeline — 1.3 adoption never decreases
// going forward, every adoption row conserves the population, and each
// epoch's report is byte-identical across worker counts.
type TimelineCase struct {
	// Seed drives the dataset, drift schedule, and world.
	Seed int64
	// Scale sizes the population swept through each epoch.
	Scale float64
}

// Name is the case's stable identifier in violations and JSON output.
func (c TimelineCase) Name() string {
	return fmt.Sprintf("timeline/seed%d/scale%g", c.Seed, c.Scale)
}

// TimelineCases is the fixed cell list, one per scenario seed.
func TimelineCases() []TimelineCase {
	return []TimelineCase{
		{Seed: 1, Scale: 0.05},
		{Seed: 7, Scale: 0.12},
	}
}

// timelineLadder is the epoch ladder every timeline case climbs: the
// capture window's end (no drift yet), then three post-paper epochs.
var timelineLadder = []time.Time{
	time.Date(2020, 8, 1, 0, 0, 0, 0, time.UTC),
	time.Date(2021, 8, 1, 0, 0, 0, 0, time.UTC),
	time.Date(2023, 8, 1, 0, 0, 0, 0, time.UTC),
	time.Date(2025, 8, 1, 0, 0, 0, 0, time.UTC),
}

// TimelineResult summarizes one timeline cell for the JSON report.
type TimelineResult struct {
	Case       string  `json:"case"`
	Epochs     int     `json:"epochs"`
	Final13    float64 `json:"final_tls13_fraction"`
	Runs       int     `json:"runs"`
	Violations int     `json:"violations"`
}

// runTimelineEpoch executes the pipeline at one (asof, workers) point
// with the same timing neutralization every scenario run uses.
func runTimelineEpoch(ctx context.Context, c TimelineCase, asof time.Time, workers int) (*core.Study, []byte, error) {
	st, err := core.Run(ctx, core.Config{
		Seed:        c.Seed,
		Scale:       c.Scale,
		MinSNIUsers: 3,
		Workers:     workers,
		AsOf:        asof,
		Probe: probe.Options{
			BackoffBase: time.Nanosecond,
			BackoffMax:  time.Nanosecond,
		},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %s asof %s: %w", c.Name(), asof.Format("2006-01-02"), err)
	}
	var buf bytes.Buffer
	st.WriteReport(&buf)
	return st, buf.Bytes(), nil
}

// RunTimelineCase climbs the epoch ladder for one cell: at each epoch
// the report must be byte-identical across worker counts 1, 4, and
// GOMAXPROCS, the 1.3-capable device fraction must never decrease from
// the previous epoch, and the adoption curve must conserve the
// population in every row. Invariant breaks are data, not errors.
func RunTimelineCase(ctx context.Context, c TimelineCase) (TimelineResult, []Violation, error) {
	name := c.Name()
	res := TimelineResult{Case: name, Epochs: len(timelineLadder)}
	var vs []Violation
	defect := func(invariant, format string, args ...interface{}) {
		vs = append(vs, Violation{Case: name, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	prevFrac := -1.0
	var prevEpoch time.Time
	for _, asof := range timelineLadder {
		if err := ctx.Err(); err != nil {
			return res, vs, err
		}
		base, baseReport, err := runTimelineEpoch(ctx, c, asof, workerCounts[0])
		if err != nil {
			return res, vs, err
		}
		res.Runs++
		for _, w := range workerCounts[1:] {
			_, got, err := runTimelineEpoch(ctx, c, asof, w)
			if err != nil {
				return res, vs, err
			}
			res.Runs++
			if !bytes.Equal(got, baseReport) {
				defect("timeline-determinism", "asof %s: workers %d vs 1: %s",
					asof.Format("2006-01-02"), w, LineDiff(baseReport, got, 5))
			}
		}

		frac := base.Dataset.TLS13Fraction(asof)
		if frac < prevFrac {
			defect("timeline-monotone", "1.3 fraction decreased %s → %s: %.4f → %.4f",
				prevEpoch.Format("2006-01-02"), asof.Format("2006-01-02"), prevFrac, frac)
		}
		prevFrac, prevEpoch = frac, asof
		res.Final13 = frac

		pop := len(base.Dataset.Devices)
		for _, pt := range base.Dataset.AdoptionCurve(timelineLadder) {
			if pt.Total() != pop {
				defect("timeline-conservation", "asof %s, row %s: buckets sum to %d, population is %d",
					asof.Format("2006-01-02"), pt.Date.Format("2006-01-02"), pt.Total(), pop)
			}
		}
	}
	// The ladder must actually exercise drift: a flat-zero curve means
	// the timeline plumbing silently disconnected.
	if res.Final13 <= 0 {
		defect("timeline-monotone", "final epoch %s shows no 1.3 adoption at all",
			timelineLadder[len(timelineLadder)-1].Format("2006-01-02"))
	}
	res.Violations = len(vs)
	return res, vs, nil
}
