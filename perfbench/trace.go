package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/libcorpus"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/serverfp"
	"repro/internal/service"
	"repro/internal/simnet"
)

// The traced run replays the pipeline by calling each module's public
// functions directly, one at a time, and records per call its wall time,
// its heap allocations (runtime.MemStats deltas) and the work it did. It
// then reassembles a core.Study from those calls and checks that the
// study's report is byte-identical to an untraced core.Run's, so the trace
// measured the same program.

// daemonStateRecords caps the records the daemon-side replay ingests:
// about the paper-scale population, the state the daemon workload holds.
const daemonStateRecords = 12000

// cloneSamples is how many clones at full state the clone time is the
// median of.
const cloneSamples = 15

// namedTable is one report table builder in report order.
type namedTable struct {
	name string
	// inReport is false for tables the workload's report does not contain;
	// they are still timed so every workload reports every layer.
	inReport bool
	build    func() report.Table
}

// tableJobs lists every report table builder, in the order WriteReport
// emits them, mirroring core's client and server job lists. The serverfp
// and timeline tables are in the report only when the config enables
// them.
func tableJobs(st *core.Study, census *serverfp.Census) []namedTable {
	c, m, s := st.Client, st.Matcher, st.Server
	drift := !st.Config.AsOf.IsZero()
	asOf := st.Config.AsOf
	if !drift {
		asOf = driftConfig.asOf
	}
	return []namedTable{
		{"LibMatch", true, func() report.Table { return report.LibMatch(c.MatchLibraries(m)) }},
		{"Table2", true, func() report.Table { return report.Table2(c.Table2()) }},
		{"Figure2", true, func() report.Table { return report.Figure2(c.DoCVendorAll(), c.DoCDeviceAll()) }},
		{"Table3", true, func() report.Table { return report.Table3(c.Table3(10)) }},
		{"Table4", true, func() report.Table { return report.Table4(c.Table4(0.2)) }},
		{"Table5", true, func() report.Table { return report.Table5(c.Table5(2)) }},
		{"VulnStats", true, func() report.Table { return report.VulnStats(c.Vulnerabilities()) }},
		{"Table11", true, func() report.Table { return report.Table11(c.Table11(m)) }},
		{"Figure8", true, func() report.Table { return report.Figure8(c.Figure8(m, 10)) }},
		{"Table12", true, func() report.Table { return report.Table12(c.Table12()) }},
		{"Figure11", true, func() report.Table { return report.Figure11(c.Figure11()) }},
		{"Figure12", true, func() report.Table { return report.Figure12(c.Figure12()) }},
		{"Census", true, func() report.Table { return report.Census(c.Census()) }},
		{"ExtensionFrequencies", true, func() report.Table { return report.ExtensionFrequencies(c.ExtensionFrequencies(m), 12) }},
		{"Table10", true, func() report.Table { return report.Table10(m.Entries()) }},
		{"Table13", true, func() report.Table { return report.Table13() }},
		{"AdoptionCurve", drift, func() report.Table { return report.AdoptionCurve(st.Dataset.AdoptionCurve(timelineDates(asOf))) }},
		{"DowngradeStragglers", drift, func() report.Table { return report.DowngradeStragglers(st.Dataset.DowngradeStragglers(), 15) }},
		{"Table6", true, func() report.Table { return report.Table6(s.Table6()) }},
		{"Sharing", true, func() report.Table { return report.Sharing(s.Sharing()) }},
		{"Figure5", true, func() report.Table { return report.Figure5(s.Figure5()) }},
		{"Table7", true, func() report.Table {
			return report.DomainRows("Table 7: Certificate chains with validation failure", s.Table7(), false)
		}},
		{"Table8", true, func() report.Table { return report.DomainRows("Table 8: Expired certificates", s.Table8(), true) }},
		{"Table14", true, func() report.Table {
			return report.DomainRows("Table 14: Certificate chains with private issuers", s.Table14(), false)
		}},
		{"CNMismatches", true, func() report.Table {
			return report.DomainRows("Section 5.3: Common Name mismatches", s.CNMismatches(), false)
		}},
		{"Figure6", true, func() report.Table { return report.Figure6(s.Figure6()) }},
		{"Table9", true, func() report.Table { return report.Table9(s.Table9()) }},
		{"CTStats", true, func() report.Table { return report.CTStats(s.CT()) }},
		{"Table15", true, func() report.Table { return report.Table15(s.Table15(30)) }},
		{"Table16", true, func() report.Table { return report.Table16(s.Table16()) }},
		{"ProbeStats", true, func() report.Table { return report.ProbeStats(s.ProbeStats) }},
		{"ReportCards", true, func() report.Table {
			return report.ReportCards(s.ReportCards(st.World.ProbeTime), st.World.ProbeTime)
		}},
		{"ServerFPCensus", st.Config.ServerFP, func() report.Table { return report.ServerFPCensus(census) }},
		{"ServerFPVendorStacks", st.Config.ServerFP, func() report.Table { return report.ServerFPVendorStacks(census) }},
	}
}

// timelineDates is the adoption-curve ladder core renders for an AsOf
// run: the capture window's end, one rung per anniversary strictly
// before asOf, and asOf itself.
func timelineDates(asOf time.Time) []time.Time {
	asOf = asOf.UTC()
	dates := []time.Time{time.Date(2020, 8, 1, 0, 0, 0, 0, time.UTC)}
	for d := dates[0].AddDate(1, 0, 0); d.Before(asOf); d = d.AddDate(1, 0, 0) {
		dates = append(dates, d)
	}
	if asOf.After(dates[len(dates)-1]) {
		dates = append(dates, asOf)
	}
	return dates
}

// studyTraced is the traced run of a report workload: the batch-side
// replay at the workload's config, then the daemon-side replay over the
// workload's records.
func studyTraced(spec studySpec) func(res *result, seed int64) {
	return func(res *result, seed int64) {
		cfg := spec.config(seed)
		_, want, _, _, err := runStudy(cfg)
		if err != nil {
			res.fail(fmt.Errorf("%s: untraced reference study: %w", spec.name, err))
			return
		}
		ds, ok := replayStudy(res, cfg, want)
		if !ok {
			return
		}
		rows := ds.Records.Slice(0, min(ds.Records.Len(), daemonStateRecords)).Rows()
		replayDaemon(res, rows, seed)
	}
}

// daemonTraced is the traced run of daemon-ingest: the paper-scale study
// the drained daemon's FinalReport runs, then the daemon-side replay over
// the warm-up population.
func daemonTraced(res *result, seed int64) {
	studyTraced(daemonPopulation)(res, seed)
}

// stageTimes maps core stage names to replayed wall times.
type stageTimes map[string]float64

// replayStudy calls each batch-side layer in pipeline order, records its
// metrics, and checks the reassembled study against want.
func replayStudy(res *result, cfg core.Config, want []byte) (*dataset.Dataset, bool) {
	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)
	vantages := simnet.Vantages()
	stages := stageTimes{}
	runtime.GC()

	var ds *dataset.Dataset
	secs, allocs := timed(func() { ds = dataset.Generate(dataset.Config{Seed: cfg.Seed, Scale: cfg.Scale, AsOf: cfg.AsOf}) })
	stages[core.StageDataset] = secs
	res.set("dataset.generate_s", secs, "s")
	res.set("dataset.allocs", allocs, "count")
	res.set("dataset.records", float64(ds.Records.Len()), "count")

	var matcher *fingerprint.Matcher
	secs, _ = timed(func() { matcher = libcorpus.NewMatcherAsOf(cfg.AsOf) })
	stages[core.StageCorpus] = secs
	res.set("libcorpus.matcher_s", secs, "s")
	res.set("libcorpus.entries", float64(len(matcher.Entries())), "count")

	var client *analysis.Client
	var err error
	secs, allocs = timed(func() { client, err = analysis.NewClientWorkers(ds, workers) })
	if err != nil {
		res.fail(fmt.Errorf("analysis.NewClientWorkers: %w", err))
		return nil, false
	}
	stages[core.StageIngest] = secs
	res.set("analysis.ingest_s", secs, "s")
	res.set("analysis.ingest_allocs", allocs, "count")
	res.set("analysis.fingerprints", float64(client.NumFingerprints()), "count")

	var snis []string
	secs, _ = timed(func() { snis = ds.SNIsByMinUsers(cfg.MinSNIUsers) })
	stages[core.StageSNIs] = secs
	res.set("dataset.sni_filter_s", secs, "s")
	res.set("dataset.snis_kept", float64(len(snis)), "count")

	var world *simnet.World
	secs, allocs = timed(func() { world = simnet.Build(simnet.Config{Seed: cfg.Seed + 1, SNIs: snis, AsOf: cfg.AsOf}) })
	stages[core.StageWorld] = secs
	res.set("simnet.build_s", secs, "s")
	res.set("simnet.build_allocs", allocs, "count")
	res.set("simnet.servers", float64(len(world.Servers)), "count")

	var results []probe.Result
	var stats probe.Stats
	secs, _ = timed(func() {
		results, stats = probe.New(probe.WorldProber{World: world}, probe.Options{Workers: workers}).Run(ctx, snis, vantages)
	})
	stages[core.StageProbe] = secs
	responded := 0
	for _, r := range results {
		if r.Err == nil {
			responded++
		}
	}
	res.set("probe.run_s", secs, "s")
	res.set("probe.jobs", float64(stats.Jobs), "count")
	res.set("probe.attempts", float64(stats.Attempts), "count")
	res.set("probe.useful_frac", float64(responded)/float64(max(1, stats.Attempts)), "ratio")
	res.op(stats.Jobs == len(results) && stats.Jobs == len(snis)*len(vantages) &&
		stats.Successes+stats.TransientFailures+stats.TerminalFailures+stats.Aborted == stats.Jobs,
		"probe job conservation: %+v over %d SNIs × %d vantages, %d results", stats, len(snis), len(vantages), len(results))

	var server *analysis.Server
	secs, allocs = timed(func() {
		server = analysis.NewServerFromProbes(world, ds, snis, vantages, results, stats)
	})
	stages[core.StageValidate] = secs
	res.set("analysis.validate_s", secs, "s")
	res.set("analysis.validate_allocs", allocs, "count")
	res.set("analysis.unreachable", float64(len(server.UnreachableSNIs)), "count")

	// The battery runs on every workload's world; only report-drift's
	// study includes it (core runs it beside chain-validate).
	var census *serverfp.Census
	secs, _ = timed(func() {
		census, err = serverfp.Fingerprint(ctx, world, snis, vantages[0], probe.Options{Workers: workers})
	})
	if err != nil {
		res.fail(fmt.Errorf("serverfp.Fingerprint: %w", err))
		return nil, false
	}
	if cfg.ServerFP {
		stages[core.StageServerFP] = secs
	}
	res.set("serverfp.run_s", secs, "s")
	res.set("serverfp.attempts", float64(census.Stats.Attempts), "count")

	st := &core.Study{Config: cfg, Dataset: ds, Client: client, Matcher: matcher, World: world, Server: server, SNIs: snis}
	if cfg.ServerFP {
		st.ServerFP = census
	}

	// Every table in report order on the still-fresh matcher, so the
	// shared semantic-match memo is filled where a real render fills it.
	var text bytes.Buffer
	fmt.Fprintf(&text, "IoT TLS & Certificate Study — %d devices, %d users, %d models, %d records\n",
		len(ds.Devices), ds.Users(), ds.Models(), ds.Records.Len())
	fmt.Fprintf(&text, "Fingerprints: %d unique; SNIs probed: %d (of %d observed)\n\n",
		client.NumFingerprints(), len(snis), len(ds.SNIs()))
	var tables []report.Table
	renderS := 0.0
	for _, job := range tableJobs(st, census) {
		var t report.Table
		secs, _ := timed(func() { t = job.build() })
		res.set("table."+job.name+"_s", secs, "s")
		if job.inReport {
			tables = append(tables, t)
			renderS += secs
		}
	}
	writeS, _ := timed(func() {
		for _, t := range tables {
			t.WriteText(&text)
			text.WriteString("\n")
		}
	})
	res.set("report.write_s", writeS, "s")
	res.op(bytes.Equal(text.Bytes(), want), "replayed table list renders %d bytes, untraced report has %d", text.Len(), len(want))

	// The study's own renderers, on a fresh matcher as in a CLI run.
	fresh := *st
	fresh.Matcher = libcorpus.NewMatcherAsOf(cfg.AsOf)
	clientS, _ := timed(func() { fresh.ClientTables() })
	serverS, _ := timed(func() { fresh.ServerTables() })
	res.set("report.client_tables_s", clientS, "s")
	res.set("report.server_tables_s", serverS, "s")

	var got bytes.Buffer
	st.WriteReport(&got)
	res.op(bytes.Equal(got.Bytes(), want), "reassembled study's WriteReport (%d bytes) differs from the untraced report (%d bytes)", got.Len(), len(want))

	busy := renderS + writeS
	for _, s := range stages {
		busy += s
	}
	res.set("core.busy_sum_s", busy, "s")
	res.set("core.critical_path_s", criticalPath(stages, cfg.ServerFP)+clientS+serverS+writeS, "s")
	return ds, true
}

// criticalPath is the longest chain of replayed stage times through the
// core.Stages() dependency graph (plus the serverfp stage after probe
// when enabled).
func criticalPath(times stageTimes, serverFP bool) float64 {
	stages := core.Stages()
	if serverFP {
		stages = append(stages, core.Stage{Name: core.StageServerFP, After: []string{core.StageProbe}})
	}
	finish := map[string]float64{}
	longest := 0.0
	for _, s := range stages { // definition order is a topological order
		start := 0.0
		for _, dep := range s.After {
			start = max(start, finish[dep])
		}
		finish[s.Name] = start + times[s.Name]
		longest = max(longest, finish[s.Name])
	}
	return longest
}

// replayDaemon times the daemon-side layers over rows in batches of
// batchSize: the delta calls directly, then the same batches through a
// service, half posted over HTTP and half submitted in-process.
func replayDaemon(res *result, rows []dataset.Record, seed int64) {
	var chunks [][]dataset.Record
	for lo := 0; lo < len(rows); lo += batchSize {
		chunks = append(chunks, rows[lo:min(lo+batchSize, len(rows))])
	}

	client := analysis.NewClientEmpty()
	var deltaS, deltaAllocs, mergeS []float64
	for i, ch := range chunks {
		var d *analysis.Delta
		var err error
		secs, allocs := timed(func() { d, err = analysis.NewDelta(ch) })
		if err != nil {
			res.fail(fmt.Errorf("analysis.NewDelta batch %d: %w", i, err))
			return
		}
		deltaS = append(deltaS, secs)
		deltaAllocs = append(deltaAllocs, allocs)
		secs, _ = timed(func() { client.MergeDelta(d) })
		mergeS = append(mergeS, secs)
	}
	var cloneS, cloneAllocs []float64
	for i := 0; i < cloneSamples; i++ {
		secs, allocs := timed(func() { client.Clone() })
		cloneS = append(cloneS, secs)
		cloneAllocs = append(cloneAllocs, allocs)
	}
	res.set("analysis.newdelta_s", median(deltaS), "s")
	res.set("analysis.newdelta_allocs", median(deltaAllocs), "count")
	res.set("analysis.merge_s", median(mergeS), "s")
	res.set("analysis.clone_s", median(cloneS), "s")
	res.set("analysis.clone_allocs", median(cloneAllocs), "count")

	bodies := make([][]byte, len(chunks))
	for i, ch := range chunks {
		body, err := service.EncodeBatch(fmt.Sprintf("source-%02d", i%sources), ch)
		if err != nil {
			res.fail(err)
			return
		}
		bodies[i] = body
	}
	d, err := startDaemon(seed)
	if err != nil {
		res.fail(err)
		return
	}
	c := httpClient(1)
	var submitS, postS []float64
	for i, ch := range chunks {
		source := fmt.Sprintf("source-%02d", i%sources)
		if i%2 == 0 {
			t0 := wall.Now()
			status, err := d.post(c, batch{source: source, records: ch, body: bodies[i]})
			postS = append(postS, since(t0))
			res.op(err == nil && status == 202, "POST /v1/batch %d: status %d, err %v", i, status, err)
			continue
		}
		var o service.Outcome
		secs, _ := timed(func() { o = d.svc.Submit(source, ch) })
		submitS = append(submitS, secs)
		res.op(o.Accepted(), "Service.Submit batch %d: %s", i, o)
	}
	c.CloseIdleConnections()
	_, err = d.waitCovered(int64(len(rows)))
	res.op(err == nil, "daemon replay: %v", err)

	snap := d.svc.Snapshot()
	matcher := libcorpus.NewMatcher()
	workers := runtime.GOMAXPROCS(0)
	var reportS []float64
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		secs, _ := timed(func() { snap.WriteReport(&buf, matcher, workers) })
		reportS = append(reportS, secs)
	}
	res.op(d.stop() == nil, "daemon replay: drain/shutdown failed")
	st := d.svc.Stats()
	res.op(st.Conserved() && st.AcceptedBatches == int64(len(chunks)),
		"daemon replay: not conserved or not all accepted: %+v", st)
	res.set("service.submit_s", median(submitS), "s")
	res.set("service.http_post_p50_s", median(postS), "s")
	res.set("service.snapshot_report_s", median(reportS), "s")
	res.set("service.epochs_per_batch", float64(st.Epoch)/float64(max(1, st.AcceptedBatches)), "ratio")
	res.set("service.shed", float64(st.ShedBatches), "count")
	res.set("service.quarantined", float64(st.QuarantinedBatches), "count")
}
