package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
)

// goldenPath is the seeded paper-scale report, relative to the repository
// root; report-paper must reproduce it byte for byte at DefaultSeed.
const goldenPath = "internal/scenario/testdata/golden/report_seed20231024_scale1.txt"

// setupRuns is how many cold set-ups, each the first of a fresh child
// process, set-up time is the median of.
const setupRuns = 5

// minSamples is the fewest warm studies a run takes, however long they are.
const minSamples = 3

// studySpec is one batch-study workload.
type studySpec struct {
	name     string
	scale    float64
	asOf     time.Time
	serverFP bool
	// golden marks the workload whose DefaultSeed report is the checked-in
	// golden snapshot.
	golden bool
}

var (
	paperConfig   = studySpec{name: "report-paper", scale: 1, golden: true}
	scale10Config = studySpec{name: "report-scale10", scale: 10}
	driftConfig   = studySpec{name: "report-drift", scale: 1, asOf: time.Date(2025, 8, 1, 0, 0, 0, 0, time.UTC), serverFP: true}
)

func studyWorkload(spec studySpec) workload {
	return workload{population: spec, setup: studySetup(spec), run: studyRun(spec), traced: studyTraced(spec)}
}

// config is the core.Config the default `iotls report` would use for the
// spec, at the given seed.
func (s studySpec) config(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = s.scale
	cfg.AsOf = s.asOf
	cfg.ServerFP = s.serverFP
	return cfg
}

// runStudy is one study as a CLI invocation runs it: core.Run, then
// WriteReport into a buffer. It returns both phase times.
func runStudy(cfg core.Config) (st *core.Study, report []byte, runS, writeS float64, err error) {
	t0 := wall.Now()
	st, err = core.Run(context.Background(), cfg)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	runS = since(t0)
	t1 := wall.Now()
	var buf bytes.Buffer
	st.WriteReport(&buf)
	writeS = since(t1)
	return st, buf.Bytes(), runS, writeS, nil
}

// probeConserved checks the probe engine's job conservation law: every
// (SNI, vantage) job ends in exactly one final class.
func probeConserved(st *core.Study) error {
	ps := st.Server.ProbeStats
	want := len(st.SNIs) * len(simnet.Vantages())
	if ps.Jobs != want {
		return fmt.Errorf("probe jobs = %d, want %d SNIs × %d vantages", ps.Jobs, len(st.SNIs), len(simnet.Vantages()))
	}
	if got := ps.Successes + ps.TransientFailures + ps.TerminalFailures + ps.Aborted; got != ps.Jobs {
		return fmt.Errorf("probe outcomes sum to %d, want %d jobs", got, ps.Jobs)
	}
	return nil
}

// studySetup measures one cold study in the current (fresh) process and
// checks its probe job conservation.
func studySetup(spec studySpec) func(seed int64) (setupOut, error) {
	return func(seed int64) (setupOut, error) {
		st, report, runS, writeS, err := runStudy(spec.config(seed))
		if err != nil {
			return setupOut{}, err
		}
		if err := probeConserved(st); err != nil {
			return setupOut{}, err
		}
		return setupOut{Seconds: runS + writeS, Digest: digest(report)}, nil
	}
}

// studyRun is the end-to-end run of a report workload: cold studies in
// fresh processes, then warm studies in this one for the measurement
// window. The first fresh process's report is the reference: the golden
// snapshot must match it where that applies, and every other report must.
func studyRun(spec studySpec) func(res *result, seed int64, budget time.Duration) {
	return func(res *result, seed int64, budget time.Duration) {
		children, err := coldSetups(spec.name, seed, setupRuns)
		if err != nil {
			res.fail(err)
			return
		}
		ref := children[0].Digest
		var setup []float64
		for i, c := range children {
			setup = append(setup, c.Seconds)
			res.op(c.Digest == ref, "%s: cold child %d report digest %s, want %s", spec.name, i, c.Digest, ref)
		}
		if spec.golden && seed == DefaultSeed {
			want, err := os.ReadFile(goldenPath)
			res.op(err == nil && digest(want) == ref, "%s: report differs from %s (read error: %v)", spec.name, goldenPath, err)
		}

		var runs, writes, totals, rates []float64
		records := 0
		start := wall.Now()
		// Study 0 warms this process up (corpus, template caches, heap): it
		// is checked but not timed.
		for i := 0; len(totals) < minSamples || wall.Now().Sub(start) < budget; i++ {
			runtime.GC() // every sample starts from the same collected heap
			st, report, runS, writeS, err := runStudy(spec.config(seed))
			if err != nil {
				res.fail(fmt.Errorf("%s: warm study %d: %w", spec.name, i, err))
				return
			}
			ok := digest(report) == ref
			if err := probeConserved(st); err != nil {
				ok = false
				res.problems = append(res.problems, err.Error())
			}
			res.op(ok, "%s: warm study %d report digest differs from the reference", spec.name, i)
			if i == 0 {
				continue
			}
			records = st.Dataset.Records.Len()
			runs = append(runs, runS)
			writes = append(writes, writeS)
			totals = append(totals, runS+writeS)
			rates = append(rates, float64(records)/runS)
		}
		fmt.Printf("# samples: setup_s n=%d (fresh processes), report_s n=%d (warm, GC before each), records=%d\n",
			len(setup), len(totals), records)
		res.set("setup_s", median(setup), "s")
		res.set("report_s", median(totals), "s")
		res.set("peak_rss_mb", peakRSSMB(), "MiB")
		res.set("ingest_records_per_s", median(rates), "records/s")
		res.set("visible_p50_s", median(runs), "s")
		res.set("read_p50_s", median(writes), "s")
		res.tail("visible_p99_s", runs, 0.99, "s")
		res.tail("read_p95_s", writes, 0.95, "s")
	}
}
