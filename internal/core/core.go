// Package core orchestrates the full study as a stage-based pipeline:
// generate (or ingest) the crowdsourced ClientHello dataset, run the
// client-side TLS analyses of Section 4, extract the SNI set, build and
// probe the server world of Section 5, validate the collected chains,
// join each certificate to the devices that visited its server, and
// render every table and figure. It is the library's primary entry point;
// cmd/iotls and the examples are thin wrappers.
//
// Run executes the Stages DAG under a context: independent stages overlap
// exactly as the hand-rolled pipeline of PR 2 did, every stage opens a
// tracing span and records wall time and item counts (Config.Tracer /
// Config.Metrics), and cancellation is honored between and inside stages.
// With observability left nil the pipeline output is byte-identical and
// the instrumentation costs nothing.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/serverfp"
	"repro/internal/simnet"
)

// Config parameterizes a study run.
type Config struct {
	// Seed drives every random decision (dataset + world).
	Seed int64
	// Scale multiplies the device population (1.0 = paper scale).
	Scale float64
	// MinSNIUsers filters SNIs observed from fewer users (paper: 3, i.e.
	// "removed SNIs observed from two or fewer users").
	MinSNIUsers int
	// AsOf replays the study at a later virtual date: the dataset applies
	// its firmware-drift schedule (upgraded devices emit 1.3-era hellos),
	// the server world applies its backend drift, the library corpus
	// gains the post-2020 dated entries, and, when the dataset is
	// generated rather than given, the report grows the adoption-timeline
	// tables. Zero is the paper-era run, byte-identical to a config
	// without the field.
	AsOf time.Time
	// Dataset, when non-nil, replaces generation: the dataset stage uses
	// it as-is and Seed/Scale stop influencing the population (they still
	// seed the world build and the probe engine). The ingest service uses
	// this to run the batch pipeline over the records it accepted, and
	// the scenario harness to replay the same records for equivalence
	// checks.
	Dataset *dataset.Dataset
	// RealTLS probes with genuine crypto/tls handshakes instead of the
	// fast path.
	RealTLS bool
	// ServerFP additionally runs the active server-stack fingerprinting
	// battery (internal/serverfp) after the probe sweep and appends its
	// census tables to the report. Off by default: the battery costs
	// len(serverfp.Battery()) extra probes per SNI, and the pre-existing
	// report tables stay byte-identical either way.
	ServerFP bool
	// Workers bounds the worker pools for record ingestion, certificate
	// minting, probing, and table rendering. 0 means GOMAXPROCS. Results
	// are identical for any worker count; only wall time changes.
	Workers int
	// Probe tunes the resilient probe engine (zero value = defaults).
	Probe probe.Options
	// Faults optionally installs deterministic handshake-fault injection
	// on the world before probing. Faults act on the simulated fast path,
	// so they conflict with RealTLS (Validate rejects the combination).
	Faults *simnet.Faults
	// Vantages selects the probing locations, primary vantage first.
	// nil or empty means the paper's three (New York primary). Entries
	// must be distinct members of simnet.Vantages(); Validate rejects
	// anything else with ErrBadVantages.
	Vantages []simnet.Vantage
	// Tracer records one hierarchical span per pipeline stage plus a
	// report span per WriteReport call. nil disables tracing at zero
	// cost and never changes the study's output.
	Tracer *obs.Tracer
	// Metrics receives counters and histograms from every subsystem:
	// probe attempts/retries/breaker activity and handshake latencies,
	// ingestion records and memo hit rates, pki cache and verdict
	// tallies, dataset generation counts, stage wall times. nil disables
	// metrics at zero cost.
	Metrics *obs.Registry
}

// Typed configuration errors, matchable with errors.Is after Validate
// (and therefore Run) wraps them with the offending value.
var (
	// ErrBadWorkers: Workers is negative (0 means GOMAXPROCS).
	ErrBadWorkers = errors.New("Workers must be >= 0")
	// ErrBadScale: Scale is zero or negative.
	ErrBadScale = errors.New("Scale must be > 0")
	// ErrBadMinSNIUsers: MinSNIUsers is below 1.
	ErrBadMinSNIUsers = errors.New("MinSNIUsers must be >= 1")
	// ErrFaultsWithRealTLS: fault injection acts on the simulated fast
	// path and cannot coexist with genuine crypto/tls handshakes.
	ErrFaultsWithRealTLS = errors.New("Faults and RealTLS are mutually exclusive")
	// ErrBadVantages: Vantages contains an unknown or duplicate entry.
	ErrBadVantages = errors.New("Vantages must be distinct members of simnet.Vantages()")
	// ErrBadAsOf: AsOf predates the capture window (a drift timeline can
	// only run forward from the paper's data).
	ErrBadAsOf = errors.New("AsOf must be zero or not before the capture window start")
)

// captureStart is the paper window's first day; AsOf dates before it are
// rejected (the timeline replays the captured population forward, never
// backward).
var captureStart = time.Date(2019, 4, 29, 0, 0, 0, 0, time.UTC)

// Validate rejects nonsense configurations with typed errors instead of
// silently "fixing" them. Run calls it first; callers constructing
// configs from user input can call it directly for early feedback.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers = %d: %w", c.Workers, ErrBadWorkers)
	}
	if c.Scale <= 0 {
		return fmt.Errorf("core: Scale = %v: %w", c.Scale, ErrBadScale)
	}
	if c.MinSNIUsers < 1 {
		return fmt.Errorf("core: MinSNIUsers = %d: %w", c.MinSNIUsers, ErrBadMinSNIUsers)
	}
	if c.Faults != nil && c.RealTLS {
		return fmt.Errorf("core: %w", ErrFaultsWithRealTLS)
	}
	if !c.AsOf.IsZero() && c.AsOf.Before(captureStart) {
		return fmt.Errorf("core: AsOf = %s: %w", c.AsOf.Format("2006-01-02"), ErrBadAsOf)
	}
	known := map[simnet.Vantage]bool{}
	for _, v := range simnet.Vantages() {
		known[v] = true
	}
	seen := map[simnet.Vantage]bool{}
	for _, v := range c.Vantages {
		if !known[v] {
			return fmt.Errorf("core: Vantages contains unknown %q: %w", v, ErrBadVantages)
		}
		if seen[v] {
			return fmt.Errorf("core: Vantages contains duplicate %q: %w", v, ErrBadVantages)
		}
		seen[v] = true
	}
	return nil
}

// vantages resolves the effective vantage set (primary first).
func (c Config) vantages() []simnet.Vantage {
	if len(c.Vantages) > 0 {
		return c.Vantages
	}
	return simnet.Vantages()
}

// DefaultConfig is the paper-scale run.
func DefaultConfig() Config {
	return Config{Seed: 20231024, Scale: 1.0, MinSNIUsers: 3}
}

// Study holds every stage's state after Run.
type Study struct {
	Config  Config
	Dataset *dataset.Dataset
	Client  *analysis.Client
	Matcher *fingerprint.Matcher
	World   *simnet.World
	Server  *analysis.Server
	// ServerFP is the active fingerprinting census (nil unless
	// Config.ServerFP).
	ServerFP *serverfp.Census
	// SNIs is the filtered SNI set fed to the prober.
	SNIs []string

	// probeResults carries the raw engine output from the probe stage to
	// the chain-validation stage, which folds it into Server.
	probeResults []probe.Result
	probeStats   probe.Stats
}

// Run executes the full pipeline under ctx. Cancelling ctx stops the run:
// stages that have not started are skipped and the probe engine drains
// in-flight attempts, so Run returns promptly with the context's error.
// The entry point of record since PR 3.
func Run(ctx context.Context, cfg Config) (*Study, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	st := &Study{Config: cfg}
	pipe := cfg.Tracer.Root().Child("core.Run")
	defer pipe.End()
	stages := Stages()
	if cfg.ServerFP {
		stages = append(stages, Stage{Name: StageServerFP, After: []string{StageProbe}, Run: runServerFPStage})
	}
	if err := runStages(ctx, st, pipe, stages); err != nil {
		return nil, err
	}
	return st, nil
}

// tableJob builds one report table. indexed marks a client table that
// reads the Client's table index, which the first such job builds (see
// buildTables).
type tableJob struct {
	build   func() report.Table
	indexed bool
}

// clientTableJobs lists the Section 4 + Appendix B table builders. Each
// job is independent and reads only immutable post-Run state (the
// matcher's memo and the Client's index are internally synchronized),
// so jobs may run on any goroutine; order in the slice is the report
// order.
func (s *Study) clientTableJobs() []tableJob {
	c, m := s.Client, s.Matcher
	jobs := []tableJob{
		{build: func() report.Table { return report.LibMatch(c.MatchLibraries(m)) }},
		{indexed: true, build: func() report.Table { return report.Table2(c.Table2()) }},
		{indexed: true, build: func() report.Table { return report.Figure2(c.DoCVendorAll(), c.DoCDeviceAll()) }},
		{indexed: true, build: func() report.Table { return report.Table3(c.Table3(10)) }},
		{indexed: true, build: func() report.Table { return report.Table4(c.Table4(0.2)) }},
		{indexed: true, build: func() report.Table { return report.Table5(c.Table5(2)) }},
		{indexed: true, build: func() report.Table { return report.VulnStats(c.Vulnerabilities()) }},
		{indexed: true, build: func() report.Table { return report.Table11(c.Table11(m)) }},
		{indexed: true, build: func() report.Table { return report.Figure8(c.Figure8(m, 10)) }},
		{indexed: true, build: func() report.Table { return report.Table12(c.Table12()) }},
		{indexed: true, build: func() report.Table { return report.Figure11(c.Figure11()) }},
		{indexed: true, build: func() report.Table { return report.Figure12(c.Figure12()) }},
		{indexed: true, build: func() report.Table { return report.Census(c.Census()) }},
		{build: func() report.Table { return report.ExtensionFrequencies(c.ExtensionFrequencies(m), 12) }},
		{build: func() report.Table { return report.Table10(m.Entries()) }},
		{build: func() report.Table { return report.Table13() }},
	}
	// The timeline tables only exist on drift runs, so the paper-era
	// report stays byte-identical (same gating as the serverfp tables).
	// They replay the generator's upgrade schedule from the dataset's
	// seed and its devices' stacks, which a dataset rebuilt from records
	// (Config.Dataset) does not carry, so only a generated dataset
	// renders them.
	if !s.Config.AsOf.IsZero() && s.Config.Dataset == nil {
		jobs = append(jobs,
			tableJob{build: func() report.Table { return report.AdoptionCurve(s.Dataset.AdoptionCurve(s.timelineDates())) }},
			tableJob{build: func() report.Table { return report.DowngradeStragglers(s.Dataset.DowngradeStragglers(), 15) }},
		)
	}
	return jobs
}

// timelineDates is the adoption-curve ladder: the capture window's end,
// one rung per anniversary strictly before AsOf, and AsOf itself.
func (s *Study) timelineDates() []time.Time {
	asof := s.Config.AsOf.UTC()
	dates := []time.Time{time.Date(2020, 8, 1, 0, 0, 0, 0, time.UTC)}
	for d := dates[0].AddDate(1, 0, 0); d.Before(asof); d = d.AddDate(1, 0, 0) {
		dates = append(dates, d)
	}
	if asof.After(dates[len(dates)-1]) {
		dates = append(dates, asof)
	}
	return dates
}

// serverTableJobs lists the Section 5 + Appendix C table builders, plus
// the active-fingerprinting tables when that stage ran. Appending rather
// than always listing them keeps the default report byte-identical.
func (s *Study) serverTableJobs() []tableJob {
	v := s.Server
	jobs := []tableJob{
		{build: func() report.Table { return report.Table6(v.Table6()) }},
		{build: func() report.Table { return report.Sharing(v.Sharing()) }},
		{build: func() report.Table { return report.Figure5(v.Figure5()) }},
		{build: func() report.Table {
			return report.DomainRows("Table 7: Certificate chains with validation failure", v.Table7(), false)
		}},
		{build: func() report.Table {
			return report.DomainRows("Table 8: Expired certificates", v.Table8(), true)
		}},
		{build: func() report.Table {
			return report.DomainRows("Table 14: Certificate chains with private issuers", v.Table14(), false)
		}},
		{build: func() report.Table {
			return report.DomainRows("Section 5.3: Common Name mismatches", v.CNMismatches(), false)
		}},
		{build: func() report.Table { return report.Figure6(v.Figure6()) }},
		{build: func() report.Table { return report.Table9(v.Table9()) }},
		{build: func() report.Table { return report.CTStats(v.CT()) }},
		{build: func() report.Table { return report.Table15(v.Table15(30)) }},
		{build: func() report.Table { return report.Table16(v.Table16()) }},
		{build: func() report.Table { return report.ProbeStats(v.ProbeStats) }},
		{build: func() report.Table {
			return report.ReportCards(v.ReportCards(s.World.ProbeTime), s.World.ProbeTime)
		}},
	}
	if s.ServerFP != nil {
		jobs = append(jobs,
			tableJob{build: func() report.Table { return report.ServerFPCensus(s.ServerFP) }},
			tableJob{build: func() report.Table { return report.ServerFPVendorStacks(s.ServerFP) }},
		)
	}
	return jobs
}

// buildTables runs table jobs on par.For, preserving slice order in
// the result regardless of completion order. The first indexed job
// starts first, and every job that needs no index goes before the other
// indexed ones, so while one worker builds the Client's index the
// others have work that does not wait for it. Each of beside is one
// more job on the same workers, handed out before any table. A job's
// panic reaches the caller once every worker has stopped, as it would
// if the jobs ran on it.
func (s *Study) buildTables(jobs []tableJob, beside ...func()) []report.Table {
	if m := s.Config.Metrics; m != nil {
		sw := obs.NewStopwatch()
		defer func() {
			m.Histogram("report_render_seconds", obs.DurationBuckets).Observe(sw.Seconds())
			m.Counter("report_tables_total").Add(int64(len(jobs)))
		}()
	}
	order := dispatchOrder(jobs)
	out := make([]report.Table, len(jobs))
	par.For(s.Config.Workers, len(beside)+len(order), func(k int) {
		if k < len(beside) {
			beside[k]()
			return
		}
		i := order[k-len(beside)]
		out[i] = jobs[i].build()
	})
	return out
}

// dispatchOrder is the order buildTables hands jobs to par.For: the
// first indexed job, then every job without the flag, then the other
// indexed jobs, each group in slice order.
func dispatchOrder(jobs []tableJob) []int {
	first := slices.IndexFunc(jobs, func(j tableJob) bool { return j.indexed })
	order := make([]int, 0, len(jobs))
	if first >= 0 {
		order = append(order, first)
	}
	for _, indexed := range []bool{false, true} {
		for i, job := range jobs {
			if job.indexed == indexed && i != first {
				order = append(order, i)
			}
		}
	}
	return order
}

// ClientTables renders the Section 4 + Appendix B tables.
func (s *Study) ClientTables() []report.Table {
	return s.buildTables(s.clientTableJobs())
}

// ServerTables renders the Section 5 + Appendix C tables.
func (s *Study) ServerTables() []report.Table {
	return s.buildTables(s.serverTableJobs())
}

// WriteReport renders every table to w. Tables are built concurrently
// (bounded by Config.Workers) and emitted in fixed order, so the bytes
// written are identical for every worker count. The header's distinct
// users, models and observed SNIs each scan the whole population, so
// they are counted on the same workers beside the tables, not before
// the first table starts.
func (s *Study) WriteReport(w io.Writer) {
	sp := s.Config.Tracer.Root().Child("report")
	defer sp.End()
	jobs := append(s.clientTableJobs(), s.serverTableJobs()...)
	sp.SetCount("tables", int64(len(jobs)))
	var users, models, observed int
	tables := s.buildTables(jobs, func() {
		users, models, observed = s.Dataset.Users(), s.Dataset.Models(), len(s.Dataset.SNIs())
	})
	fmt.Fprintf(w, "IoT TLS & Certificate Study — %d devices, %d users, %d models, %d records\n",
		len(s.Dataset.Devices), users, models, s.Dataset.Records.Len())
	fmt.Fprintf(w, "Fingerprints: %d unique; SNIs probed: %d (of %d observed)\n\n",
		s.Client.NumFingerprints(), len(s.SNIs), observed)
	for _, t := range tables {
		t.WriteText(w)
		fmt.Fprintln(w)
	}
}

// Figure1Dot renders the vendor–fingerprint graph with security coloring.
func (s *Study) Figure1Dot() string {
	vendorIdx := map[string]int{}
	for _, v := range dataset.Vendors() {
		vendorIdx[v.Name] = v.Index
	}
	g := s.Client.VendorGraph()
	return g.Dot(graph.DotOptions{
		Name: "figure1_vendor_fingerprints",
		RightColor: func(key string) string {
			return report.SecurityColor(s.Client.Fingerprint(key).Print)
		},
		RightSize: func(key string) float64 {
			return report.SecuritySize(s.Client.Fingerprint(key).Print)
		},
		LeftLabel: func(vendor string) string {
			return fmt.Sprintf("%d", vendorIdx[vendor])
		},
	})
}

// Figure3Dot renders the Amazon device-type graph.
func (s *Study) Figure3Dot() string {
	g := s.Client.TypeGraphForVendor("Amazon")
	return g.Dot(graph.DotOptions{
		Name: "figure3_amazon_types",
		RightColor: func(key string) string {
			return report.SecurityColor(s.Client.Fingerprint(key).Print)
		},
	})
}

// Figure4Dot renders the Amazon Echo (speaker) device–fingerprint graph.
func (s *Study) Figure4Dot() string {
	g := s.Client.DeviceGraphForVendorType("Amazon", dataset.TypeSpeaker)
	return g.Dot(graph.DotOptions{
		Name: "figure4_amazon_echo_devices",
		RightColor: func(key string) string {
			return report.SecurityColor(s.Client.Fingerprint(key).Print)
		},
	})
}
