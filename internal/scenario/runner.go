package scenario

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/tlswire"
)

// Violation is one failed invariant, attributed to a case.
type Violation struct {
	Case      string `json:"case"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: %s", v.Case, v.Invariant, v.Detail)
}

// runOutput is one pipeline execution's observable surface.
type runOutput struct {
	report  []byte
	stats   probe.Stats
	study   *core.Study
	samples map[string]float64 // metrics exposition, nil when obs was off
}

// CaseResult summarizes one case for the JSON report.
type CaseResult struct {
	Case       string `json:"case"`
	Devices    int    `json:"devices"`
	Records    int    `json:"records"`
	SNIs       int    `json:"snis_observed"`
	SNIsKept   int    `json:"snis_kept"`
	Jobs       int    `json:"probe_jobs"`
	Attempts   int    `json:"probe_attempts"`
	Retries    int    `json:"probe_retries"`
	Reruns     int    `json:"runs"`
	Violations int    `json:"violations"`
}

// Summary aggregates a matrix sweep.
type Summary struct {
	Configs       int              `json:"configs"`
	Runs          int              `json:"runs"`
	WireRecords   int              `json:"wire_records_checked"`
	Cases         []CaseResult     `json:"cases"`
	ServiceCells  []ServiceResult  `json:"service_cells,omitempty"`
	ServerFPCells []ServerFPResult `json:"serverfp_cells,omitempty"`
	TimelineCells []TimelineResult `json:"timeline_cells,omitempty"`
	Violations    []Violation      `json:"violations"`
}

// OK reports whether every invariant held.
func (s *Summary) OK() bool { return len(s.Violations) == 0 }

// Options tunes a matrix sweep.
type Options struct {
	// Progress receives one line per case; nil silences it.
	Progress io.Writer
	// Golden, when set, snapshots the tolerance case's report.
	Golden *GoldenStore
	// RerunEvery reruns every n-th case with an identical configuration
	// to check exact reproducibility (0: default 8; < 0: never).
	RerunEvery int
	// WireSample bounds how many ClientHello records per case go through
	// the crypto/tls differential oracle (0: default 40; < 0: none).
	WireSample int
}

func (o Options) rerunEvery() int {
	if o.RerunEvery == 0 {
		return 8
	}
	return o.RerunEvery
}

func (o Options) wireSample() int {
	if o.WireSample == 0 {
		return 40
	}
	return o.WireSample
}

// execute runs the pipeline once for the case with the given worker
// bound, with observability attached when withObs is set.
func execute(ctx context.Context, c Case, workers int, withObs bool) (*runOutput, error) {
	var tracer *obs.Tracer
	var metrics *obs.Registry
	if withObs {
		tracer = obs.NewTracer("iotcheck")
		metrics = obs.NewRegistry("iotcheck")
	}
	st, err := core.Run(ctx, c.config(workers, tracer, metrics))
	if err != nil {
		return nil, fmt.Errorf("scenario: case %s: %w", c.Name(), err)
	}
	var buf bytes.Buffer
	st.WriteReport(&buf)
	out := &runOutput{report: buf.Bytes(), stats: st.Server.ProbeStats, study: st}
	if metrics != nil {
		var expo bytes.Buffer
		if err := metrics.WritePrometheus(&expo); err != nil {
			return nil, fmt.Errorf("scenario: case %s: metrics exposition: %w", c.Name(), err)
		}
		samples, err := obs.ParseText(&expo)
		if err != nil {
			return nil, fmt.Errorf("scenario: case %s: metrics parse: %w", c.Name(), err)
		}
		out.samples = samples
	}
	return out, nil
}

// runCase executes one case — base run, variant run, and (optionally)
// an exact rerun — and returns every invariant violation found, and the
// base run, whose dataset RunMatrix samples for the wire differential.
// The error return is reserved for infrastructure failures (a pipeline
// refusing to run at all); invariant breaks are data, not errors.
func runCase(ctx context.Context, c Case, opts Options, exactRerun bool) (CaseResult, []Violation, *runOutput, error) {
	name := c.Name()
	res := CaseResult{Case: name}

	base, err := execute(ctx, c, c.Workers, true)
	if err != nil {
		return res, nil, nil, err
	}
	variant, err := execute(ctx, c, c.AltWorkers, false)
	if err != nil {
		return res, nil, nil, err
	}
	res.Reruns = 2

	var vs []Violation
	defect := func(invariant, format string, args ...interface{}) {
		vs = append(vs, Violation{Case: name, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}

	// Metamorphic: worker count and observability must not leak into the
	// rendered bytes.
	if !bytes.Equal(base.report, variant.report) {
		defect("report-determinism", "workers %d (obs on) vs %d (obs off): %s",
			c.Workers, c.AltWorkers, LineDiff(base.report, variant.report, 5))
	}
	if exactRerun {
		again, err := execute(ctx, c, c.Workers, true)
		if err != nil {
			return res, vs, nil, err
		}
		res.Reruns++
		if !bytes.Equal(base.report, again.report) {
			defect("seed-stability", "identical rerun changed the report: %s",
				LineDiff(base.report, again.report, 5))
		}
	}

	checkConservation(base, c, defect)
	checkMetricsReconcile(base, defect)
	checkProbeTableReconcile(base.stats, defect)
	if c.Tolerance {
		checkTolerance(base, defect)
		if opts.Golden != nil {
			if err := opts.Golden.Check(goldenName(c), base.report); err != nil {
				defect("golden-report", "%v", err)
			}
		}
	}
	res.Violations = len(vs)

	st := base.study
	res.Devices = len(st.Dataset.Devices)
	res.Records = st.Dataset.Records.Len()
	res.SNIs = len(st.Dataset.SNIs())
	res.SNIsKept = len(st.SNIs)
	res.Jobs = base.stats.Jobs
	res.Attempts = base.stats.Attempts
	res.Retries = base.stats.Retries
	return res, vs, base, nil
}

// checkConservation enforces the counting laws one run must satisfy.
func checkConservation(out *runOutput, c Case, defect func(string, string, ...interface{})) {
	st, stats := out.study, out.stats
	if want := len(st.SNIs) * len(c.vantages()); stats.Jobs != want {
		defect("conservation", "Jobs = %d, want SNIs×vantages = %d×%d = %d",
			stats.Jobs, len(st.SNIs), len(c.vantages()), want)
	}
	if sum := stats.Successes + stats.TransientFailures + stats.TerminalFailures + stats.Aborted; sum != stats.Jobs {
		defect("conservation", "successes %d + transient %d + terminal %d + aborted %d = %d, want Jobs = %d",
			stats.Successes, stats.TransientFailures, stats.TerminalFailures, stats.Aborted, sum, stats.Jobs)
	}
	if stats.Attempts < stats.Successes {
		defect("conservation", "Attempts %d < Successes %d", stats.Attempts, stats.Successes)
	}
	if stats.RecoveredAfterRetry > stats.Successes {
		defect("conservation", "RecoveredAfterRetry %d > Successes %d", stats.RecoveredAfterRetry, stats.Successes)
	}
	if stats.Retries > stats.Attempts {
		defect("conservation", "Retries %d > Attempts %d", stats.Retries, stats.Attempts)
	}
	if c.FaultRate == 0 {
		// With no injected faults the only failures are the world's
		// permanently unreachable hosts: one attempt per job, no retries.
		if stats.Attempts != stats.Jobs || stats.Retries != 0 || stats.TransientFailures != 0 {
			defect("conservation", "fault-free run: attempts %d retries %d transient %d, want %d/0/0",
				stats.Attempts, stats.Retries, stats.TransientFailures, stats.Jobs)
		}
	}
	// Per-vendor device counts partition the population, and every
	// vendor is one of the catalogue's.
	byVendor := map[string]int{}
	for _, d := range st.Dataset.Devices {
		byVendor[d.Vendor]++
	}
	total := 0
	names := make([]string, 0, len(byVendor))
	for v := range byVendor {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		total += byVendor[v]
	}
	if total != len(st.Dataset.Devices) {
		defect("conservation", "per-vendor device counts sum to %d, population is %d",
			total, len(st.Dataset.Devices))
	}
	known := map[string]bool{}
	for v := range vendorCatalogue() {
		known[v] = true
	}
	for _, v := range names {
		if !known[v] {
			defect("conservation", "device vendor %q is not in the vendor catalogue", v)
		}
	}
}

// checkMetricsReconcile compares the metrics registry's counters with
// the engine's own Stats — two independent tallies of the same events.
func checkMetricsReconcile(out *runOutput, defect func(string, string, ...interface{})) {
	if out.samples == nil {
		return
	}
	stats, st := out.stats, out.study
	for _, tc := range []struct {
		series string
		want   int
	}{
		{"iotcheck_probe_attempts_total", stats.Attempts},
		{"iotcheck_probe_retries_total", stats.Retries},
		{"iotcheck_probe_successes_total", stats.Successes},
		{"iotcheck_probe_recovered_after_retry_total", stats.RecoveredAfterRetry},
		{"iotcheck_probe_breaker_opens_total", stats.BreakerOpens},
		{"iotcheck_probe_breaker_fast_fails_total", stats.BreakerFastFails},
		{"iotcheck_ingest_records_total", st.Dataset.Records.Len()},
	} {
		if got := obs.SumSeries(out.samples, tc.series); got != float64(tc.want) {
			defect("metrics-reconcile", "%s = %v, engine says %d", tc.series, got, tc.want)
		}
	}
	if got := obs.SumSeries(out.samples, "iotcheck_probe_handshake_seconds_count"); got != float64(stats.Attempts) {
		defect("metrics-reconcile", "handshake histogram count = %v, attempts = %d", got, stats.Attempts)
	}
}

// checkProbeTableReconcile re-parses the rendered ProbeStats table and
// checks it against the Stats that produced it, so a drifting table
// builder cannot silently misreport the collection run.
func checkProbeTableReconcile(stats probe.Stats, defect func(string, string, ...interface{})) {
	table := report.ProbeStats(stats)
	want := []int{
		stats.Jobs, stats.Attempts, stats.Retries, stats.Successes,
		stats.RecoveredAfterRetry, stats.TransientFailures, stats.TerminalFailures,
		stats.Aborted, stats.BreakerOpens, stats.BreakerFastFails, stats.BudgetExhausted,
	}
	if len(table.Rows) != len(want) {
		defect("table-reconcile", "ProbeStats table has %d rows, Stats has %d fields", len(table.Rows), len(want))
		return
	}
	for i, row := range table.Rows {
		if len(row) != 2 {
			defect("table-reconcile", "ProbeStats row %d has %d cells", i, len(row))
			continue
		}
		got, err := strconv.Atoi(row[1])
		if err != nil {
			defect("table-reconcile", "ProbeStats row %q: %v", row[0], err)
			continue
		}
		if got != want[i] {
			defect("table-reconcile", "ProbeStats row %q = %d, engine says %d", row[0], got, want[i])
		}
	}
}

// checkWire pushes a deterministic sample of the run's ClientHello
// records through the crypto/tls differential oracle.
func checkWire(out *runOutput, sample int, defect func(string, string, ...interface{})) int {
	records := out.study.Dataset.Records
	if sample <= 0 || records.Len() == 0 {
		return 0
	}
	stride := records.Len() / sample
	if stride == 0 {
		stride = 1
	}
	checked := 0
	for i := 0; i < records.Len() && checked < sample; i += stride {
		checked++
		if diffs := tlswire.CompareWithCryptoTLS(records.Raw(i)); len(diffs) > 0 {
			defect("wire-differential", "record %d (%s, stack %s): %v",
				i, records.At(i).SNI, records.At(i).StackID, diffs)
		}
	}
	return checked
}

// RunMatrix sweeps the matrix and aggregates every check, including the
// cross-case monotone-growth comparison.
func RunMatrix(ctx context.Context, m Matrix, opts Options) (*Summary, error) {
	cases := m.Cases()
	sum := &Summary{Configs: len(cases)}
	type growth struct {
		scale                  float64
		devices, records, snis int
	}
	bySeed := map[int64][]growth{}
	for i, c := range cases {
		if err := ctx.Err(); err != nil {
			return sum, err
		}
		exact := opts.rerunEvery() > 0 && i%opts.rerunEvery() == 0
		res, vs, base, err := runCase(ctx, c, opts, exact)
		if err != nil {
			return sum, err
		}
		wireDefect := func(invariant, format string, args ...interface{}) {
			vs = append(vs, Violation{Case: c.Name(), Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
		}
		// Run the wire differential on the base run's dataset. The
		// dataset depends only on (seed, scale), so sample once per
		// distinct pair: the first worker-pair/fault/vantage cell.
		if i == firstCaseFor(cases, c.Seed, c.Scale) {
			sum.WireRecords += checkWire(base, opts.wireSample(), wireDefect)
			res.Violations = len(vs)
		}
		sum.Runs += res.Reruns
		sum.Cases = append(sum.Cases, res)
		sum.Violations = append(sum.Violations, vs...)
		bySeed[c.Seed] = append(bySeed[c.Seed], growth{c.Scale, res.Devices, res.Records, res.SNIs})
		if opts.Progress != nil {
			status := "ok"
			if len(vs) > 0 {
				status = fmt.Sprintf("%d violation(s)", len(vs))
			}
			fmt.Fprintf(opts.Progress, "[%3d/%d] %-44s devices=%-5d jobs=%-5d %s\n",
				i+1, len(cases), c.Name(), res.Devices, res.Jobs, status)
		}
	}

	// Service-mode cells: conservation, deterministic shedding, and
	// drained-report equivalence with the batch pipeline.
	if m.ServiceCells {
		for _, sc := range ServiceCases() {
			if err := ctx.Err(); err != nil {
				return sum, err
			}
			res, vs, err := RunServiceCase(ctx, sc)
			if err != nil {
				return sum, err
			}
			sum.ServiceCells = append(sum.ServiceCells, res)
			sum.Violations = append(sum.Violations, vs...)
			if opts.Progress != nil {
				status := "ok"
				if len(vs) > 0 {
					status = fmt.Sprintf("%d violation(s)", len(vs))
				}
				fmt.Fprintf(opts.Progress, "[svc] %-44s accepted=%d/%d shed=%d quarantined=%d %s\n",
					sc.Name(), res.Accepted, res.Submitted, res.Shed, res.Quarantined, status)
			}
		}
	}

	// Active-fingerprinting cells: classification accuracy and census
	// determinism across worker counts.
	if m.ServerFPCells {
		for _, fc := range ServerFPCases() {
			if err := ctx.Err(); err != nil {
				return sum, err
			}
			res, vs, err := RunServerFPCase(ctx, fc)
			if err != nil {
				return sum, err
			}
			sum.ServerFPCells = append(sum.ServerFPCells, res)
			sum.Violations = append(sum.Violations, vs...)
			if opts.Progress != nil {
				status := "ok"
				if len(vs) > 0 {
					status = fmt.Sprintf("%d violation(s)", len(vs))
				}
				fmt.Fprintf(opts.Progress, "[sfp] %-44s targets=%-5d accuracy=%.3f %s\n",
					fc.Name(), res.Targets, res.Accuracy, status)
			}
		}
	}

	// Longitudinal cells: the asof ladder checked for monotone 1.3
	// adoption, adoption-row conservation, and per-epoch determinism.
	if m.TimelineCells {
		for _, tc := range TimelineCases() {
			if err := ctx.Err(); err != nil {
				return sum, err
			}
			res, vs, err := RunTimelineCase(ctx, tc)
			if err != nil {
				return sum, err
			}
			sum.TimelineCells = append(sum.TimelineCells, res)
			sum.Violations = append(sum.Violations, vs...)
			if opts.Progress != nil {
				status := "ok"
				if len(vs) > 0 {
					status = fmt.Sprintf("%d violation(s)", len(vs))
				}
				fmt.Fprintf(opts.Progress, "[tml] %-44s epochs=%-2d final13=%.3f %s\n",
					tc.Name(), res.Epochs, res.Final13, status)
			}
		}
	}

	// Monotone growth: for a fixed seed, a larger scale must never
	// shrink the population or its observations.
	seeds := make([]int64, 0, len(bySeed))
	for s := range bySeed {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		gs := bySeed[s]
		sort.Slice(gs, func(i, j int) bool { return gs[i].scale < gs[j].scale })
		for i := 1; i < len(gs); i++ {
			a, b := gs[i-1], gs[i]
			if a.scale == b.scale {
				continue
			}
			if b.devices < a.devices || b.records < a.records || b.snis < a.snis {
				sum.Violations = append(sum.Violations, Violation{
					Case:      fmt.Sprintf("seed%d", s),
					Invariant: "monotone-growth",
					Detail: fmt.Sprintf("scale %g→%g shrank devices %d→%d, records %d→%d, or SNIs %d→%d",
						a.scale, b.scale, a.devices, b.devices, a.records, b.records, a.snis, b.snis),
				})
			}
		}
	}
	return sum, nil
}

// firstCaseFor returns the index of the first case with the given
// (seed, scale) pair; the matrix expansion order makes it stable.
func firstCaseFor(cases []Case, seed int64, scale float64) int {
	for i, c := range cases {
		if c.Seed == seed && c.Scale == scale {
			return i
		}
	}
	return -1
}
