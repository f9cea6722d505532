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
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/obs"
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
	// gains the post-2020 dated entries, and the report grows the
	// adoption-timeline tables. Zero is the paper-era run, byte-identical
	// to a config without the field.
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
	// Workers bounds the worker pools for record ingestion, probing, and
	// table rendering. 0 means GOMAXPROCS. Results are identical for any
	// worker count; only wall time changes.
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

// workers resolves the effective worker count.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
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
	if err := RunStages(ctx, st, pipe, stages); err != nil {
		return nil, err
	}
	return st, nil
}

// clientTableJobs lists the Section 4 + Appendix B table builders. Each
// job is independent and reads only immutable post-Run state (the
// matcher's memo is internally synchronized), so jobs may run on any
// goroutine; order in the slice is the report order.
func (s *Study) clientTableJobs() []func() report.Table {
	jobs := []func() report.Table{
		func() report.Table { return report.LibMatch(s.Client.MatchLibraries(s.Matcher)) },
		func() report.Table { return report.Table2(s.Client.Table2()) },
		func() report.Table { return report.Figure2(s.Client.DoCVendorAll(), s.Client.DoCDeviceAll()) },
		func() report.Table { return report.Table3(s.Client.Table3(10)) },
		func() report.Table { return report.Table4(s.Client.Table4(0.2)) },
		func() report.Table { return report.Table5(s.Client.Table5(2)) },
		func() report.Table { return report.VulnStats(s.Client.Vulnerabilities()) },
		func() report.Table { return report.Table11(s.Client.Table11(s.Matcher)) },
		func() report.Table { return report.Figure8(s.Client.Figure8(s.Matcher, 10)) },
		func() report.Table { return report.Table12(s.Client.Table12()) },
		func() report.Table { return report.Figure11(s.Client.Figure11()) },
		func() report.Table { return report.Figure12(s.Client.Figure12()) },
		func() report.Table { return report.Census(s.Client.Census()) },
		func() report.Table { return report.ExtensionFrequencies(s.Client.ExtensionFrequencies(s.Matcher), 12) },
		func() report.Table { return report.Table10(s.Matcher.Entries()) },
		func() report.Table { return report.Table13() },
	}
	// The timeline tables only exist on drift runs, so the paper-era
	// report stays byte-identical (same gating as the serverfp tables).
	if !s.Config.AsOf.IsZero() {
		jobs = append(jobs,
			func() report.Table { return report.AdoptionCurve(s.Dataset.AdoptionCurve(s.timelineDates())) },
			func() report.Table { return report.DowngradeStragglers(s.Dataset.DowngradeStragglers(), 15) },
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
func (s *Study) serverTableJobs() []func() report.Table {
	jobs := []func() report.Table{
		func() report.Table { return report.Table6(s.Server.Table6()) },
		func() report.Table { return report.Sharing(s.Server.Sharing()) },
		func() report.Table { return report.Figure5(s.Server.Figure5()) },
		func() report.Table {
			return report.DomainRows("Table 7: Certificate chains with validation failure", s.Server.Table7(), false)
		},
		func() report.Table {
			return report.DomainRows("Table 8: Expired certificates", s.Server.Table8(), true)
		},
		func() report.Table {
			return report.DomainRows("Table 14: Certificate chains with private issuers", s.Server.Table14(), false)
		},
		func() report.Table {
			return report.DomainRows("Section 5.3: Common Name mismatches", s.Server.CNMismatches(), false)
		},
		func() report.Table { return report.Figure6(s.Server.Figure6()) },
		func() report.Table { return report.Table9(s.Server.Table9()) },
		func() report.Table { return report.CTStats(s.Server.CT()) },
		func() report.Table { return report.Table15(s.Server.Table15(30)) },
		func() report.Table { return report.Table16(s.Server.Table16()) },
		func() report.Table { return report.ProbeStats(s.Server.ProbeStats) },
		func() report.Table {
			return report.ReportCards(s.Server.ReportCards(s.World.ProbeTime), s.World.ProbeTime)
		},
	}
	if s.ServerFP != nil {
		jobs = append(jobs,
			func() report.Table { return report.ServerFPCensus(s.ServerFP) },
			func() report.Table { return report.ServerFPVendorStacks(s.ServerFP) },
		)
	}
	return jobs
}

// buildTables runs table jobs across the study's worker pool, preserving
// slice order in the result regardless of completion order.
func (s *Study) buildTables(jobs []func() report.Table) []report.Table {
	if m := s.Config.Metrics; m != nil {
		sw := obs.NewStopwatch()
		defer func() {
			m.Histogram("report_render_seconds", obs.DurationBuckets).Observe(sw.Seconds())
			m.Counter("report_tables_total").Add(int64(len(jobs)))
		}()
	}
	workers := s.Config.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]report.Table, len(jobs))
	if workers <= 1 {
		for i, job := range jobs {
			out[i] = job()
		}
		return out
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = jobs[i]()
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
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
// written are identical for every worker count.
func (s *Study) WriteReport(w io.Writer) {
	sp := s.Config.Tracer.Root().Child("report")
	defer sp.End()
	fmt.Fprintf(w, "IoT TLS & Certificate Study — %d devices, %d users, %d models, %d records\n",
		len(s.Dataset.Devices), s.Dataset.Users(), s.Dataset.Models(), s.Dataset.Records.Len())
	fmt.Fprintf(w, "Fingerprints: %d unique; SNIs probed: %d (of %d observed)\n\n",
		s.Client.NumFingerprints(), len(s.SNIs), len(s.Dataset.SNIs()))
	jobs := append(s.clientTableJobs(), s.serverTableJobs()...)
	sp.SetCount("tables", int64(len(jobs)))
	for _, t := range s.buildTables(jobs) {
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
