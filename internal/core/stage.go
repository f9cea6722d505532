package core

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/libcorpus"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/serverfp"
	"repro/internal/simnet"
)

// Stage names, in pipeline order. They are the span names under
// "core.Run" and the stage label on every stage_* metric series.
const (
	StageDataset  = "dataset"
	StageCorpus   = "corpus"
	StageIngest   = "ingest"
	StageSNIs     = "sni-filter"
	StageWorld    = "world-build"
	StageProbe    = "probe"
	StageValidate = "chain-validate"
	// StageJoin attaches to every certificate record the devices and
	// vendors that visited its SNI, read from the ingested client state.
	StageJoin = "visitor-join"
	// StageServerFP is the optional active-fingerprinting stage; Run
	// appends it after StageProbe when Config.ServerFP is set, so
	// Stages() itself (and every stage-count invariant built on it)
	// describes the default pipeline.
	StageServerFP = "serverfp"
)

// Stage is one named step of the study pipeline. Stages form a DAG via
// After; the runner starts every stage whose dependencies have completed,
// so independent stages overlap (client-side ingestion runs while the
// server world is built and probed) while each still gets its own span,
// wall-time histogram, and item counts. Every stage is deterministic, so
// the interleaving cannot change results.
type Stage struct {
	// Name identifies the stage in spans, metrics, and errors.
	Name string
	// After lists the names of stages that must complete first.
	After []string
	// Run executes the stage: it reads and extends the Study under the
	// given context and reports item counts through rec.
	Run func(ctx context.Context, st *Study, rec *StageRecorder) error
}

// StageRecorder collects a stage's item counts: they land on the stage's
// span (when tracing) and on stage_items_total{stage,item} counters
// (when metrics are enabled). The runner hands every stage a recorder, so
// stage code never branches on what observability is attached.
type StageRecorder struct {
	// Span is the stage's span (nil when tracing is off); stages may
	// attach sub-spans to it.
	Span *obs.Span

	name    string
	metrics *obs.Registry
}

// Count records one named item count for the stage.
func (r *StageRecorder) Count(key string, v int64) {
	r.Span.SetCount(key, v)
	if r.metrics != nil {
		r.metrics.Counter("stage_items_total", obs.L("stage", r.name), obs.L("item", key)).Add(v)
	}
}

// Stages returns the study pipeline as a fresh stage slice in definition
// order: dataset generation, library-corpus construction, client
// ingestion, SNI filtering, world building, probing, chain validation,
// and the visitor join. The server branch (sni-filter → world-build →
// probe → chain-validate) and client ingestion meet only at the join,
// so neither waits for the other. Callers may inspect, reorder, or
// extend the slice before handing it to RunStages; Run uses it as-is.
func Stages() []Stage {
	return []Stage{
		{Name: StageDataset, Run: runDatasetStage},
		{Name: StageCorpus, Run: runCorpusStage},
		{Name: StageIngest, After: []string{StageDataset}, Run: runIngestStage},
		{Name: StageSNIs, After: []string{StageDataset}, Run: runSNIStage},
		{Name: StageWorld, After: []string{StageSNIs}, Run: runWorldStage},
		{Name: StageProbe, After: []string{StageWorld}, Run: runProbeStage},
		{Name: StageValidate, After: []string{StageProbe}, Run: runValidateStage},
		{Name: StageJoin, After: []string{StageValidate, StageIngest}, Run: runJoinStage},
	}
}

func runDatasetStage(_ context.Context, st *Study, rec *StageRecorder) error {
	cfg := st.Config
	if cfg.Dataset != nil {
		st.Dataset = cfg.Dataset
	} else {
		st.Dataset = dataset.Generate(dataset.Config{Seed: cfg.Seed, Scale: cfg.Scale, AsOf: cfg.AsOf, Metrics: cfg.Metrics})
	}
	rec.Count("devices", int64(len(st.Dataset.Devices)))
	rec.Count("records", int64(st.Dataset.Records.Len()))
	return nil
}

func runCorpusStage(_ context.Context, st *Study, rec *StageRecorder) error {
	st.Matcher = libcorpus.NewMatcherAsOf(st.Config.AsOf)
	rec.Count("entries", int64(st.Matcher.CorpusSize()))
	return nil
}

func runIngestStage(_ context.Context, st *Study, rec *StageRecorder) error {
	cfg := st.Config
	client, err := analysis.NewClientObserved(st.Dataset, cfg.workers(), cfg.Metrics)
	if err != nil {
		return err
	}
	st.Client = client
	rec.Count("records", int64(st.Dataset.Records.Len()))
	rec.Count("fingerprints", int64(client.NumFingerprints()))
	return nil
}

func runSNIStage(_ context.Context, st *Study, rec *StageRecorder) error {
	cfg := st.Config
	st.SNIs = st.Dataset.SNIsByMinUsers(cfg.MinSNIUsers)
	rec.Count("observed", int64(len(st.Dataset.SNIs())))
	rec.Count("kept", int64(len(st.SNIs)))
	return nil
}

func runWorldStage(_ context.Context, st *Study, rec *StageRecorder) error {
	cfg := st.Config
	st.World = simnet.Build(simnet.Config{Seed: cfg.Seed + 1, SNIs: st.SNIs, AsOf: cfg.AsOf, Faults: cfg.Faults, Workers: cfg.workers()})
	st.World.Validator.Instrument(cfg.Metrics)
	rec.Count("servers", int64(len(st.World.Servers)))
	return nil
}

func runProbeStage(ctx context.Context, st *Study, rec *StageRecorder) error {
	cfg := st.Config
	opts := cfg.Probe
	if opts.Workers == 0 {
		opts.Workers = cfg.workers()
	}
	if opts.Metrics == nil {
		opts.Metrics = cfg.Metrics
	}
	eng := probe.New(probe.WorldProber{World: st.World, RealTLS: cfg.RealTLS}, opts)
	st.probeResults, st.probeStats = eng.Run(ctx, st.SNIs, cfg.vantages())
	rec.Count("jobs", int64(st.probeStats.Jobs))
	rec.Count("attempts", int64(st.probeStats.Attempts))
	rec.Count("retries", int64(st.probeStats.Retries))
	// A cancelled sweep leaves aborted placeholders in the results; the
	// study is incomplete, so surface the cancellation instead of
	// validating partial data.
	return ctx.Err()
}

func runServerFPStage(ctx context.Context, st *Study, rec *StageRecorder) error {
	cfg := st.Config
	opts := cfg.Probe
	if opts.Workers == 0 {
		opts.Workers = cfg.workers()
	}
	// The battery runs uninstrumented: its attempts would otherwise land
	// on the same probe_* series as the canonical sweep and break the
	// attempts == stats reconciliation downstream consumers rely on.
	opts.Metrics = nil
	census, err := serverfp.Fingerprint(ctx, st.World, st.SNIs, cfg.vantages()[0], opts)
	if err != nil {
		return err
	}
	st.ServerFP = census
	rec.Count("targets", int64(len(census.Targets)))
	rec.Count("battery", int64(census.BatterySize))
	rec.Count("attempts", int64(census.Stats.Attempts))
	return ctx.Err()
}

func runValidateStage(_ context.Context, st *Study, rec *StageRecorder) error {
	cfg := st.Config
	st.Server = analysis.ValidateProbes(st.World, st.SNIs, cfg.vantages(), st.probeResults, st.probeStats, cfg.workers())
	st.probeResults = nil // the engine output is folded into Server
	rec.Count("records", int64(len(st.Server.Records)))
	rec.Count("unreachable", int64(len(st.Server.UnreachableSNIs)))
	return nil
}

func runJoinStage(_ context.Context, st *Study, rec *StageRecorder) error {
	st.Server.AttachVisitors(st.Client.SNIDevices, st.Client.DeviceVendor)
	rec.Count("records", int64(len(st.Server.Records)))
	return nil
}

// RunStages executes a stage DAG against the study. Each stage gets a
// pre-allocated span under parent (created in definition order, so the
// span tree's shape is deterministic for any scheduling), a
// stage_seconds histogram sample, and a ctx check before launch; a
// cancelled context aborts stages that have not started. The first
// failing stage in definition order determines the returned error.
func RunStages(ctx context.Context, st *Study, parent *obs.Span, stages []Stage) error {
	idx := map[string]int{}
	for i, s := range stages {
		if s.Name == "" {
			return fmt.Errorf("core: stage %d has no name", i)
		}
		if _, dup := idx[s.Name]; dup {
			return fmt.Errorf("core: duplicate stage %q", s.Name)
		}
		idx[s.Name] = i
	}
	for _, s := range stages {
		for _, dep := range s.After {
			j, ok := idx[dep]
			if !ok {
				return fmt.Errorf("core: stage %q depends on unknown stage %q", s.Name, dep)
			}
			if j >= idx[s.Name] {
				return fmt.Errorf("core: stage %q depends on later stage %q", s.Name, dep)
			}
		}
	}

	metrics := st.Config.Metrics
	spans := make([]*obs.Span, len(stages))
	for i, s := range stages {
		spans[i] = parent.Child(s.Name)
	}

	type outcome struct {
		err  error
		ran  bool
		done chan struct{}
	}
	outs := make([]*outcome, len(stages))
	for i := range outs {
		outs[i] = &outcome{done: make(chan struct{})}
	}
	for i, s := range stages {
		go func(i int, s Stage) {
			defer close(outs[i].done)
			for _, dep := range s.After {
				d := outs[idx[dep]]
				<-d.done
				if d.err != nil || !d.ran {
					return // upstream failed or was skipped
				}
			}
			if err := ctx.Err(); err != nil {
				outs[i].err = err
				return
			}
			rec := &StageRecorder{Span: spans[i], name: s.Name, metrics: metrics}
			rec.Span.Begin()
			sw := obs.NewStopwatch()
			err := s.Run(ctx, st, rec)
			rec.Span.End()
			if metrics != nil {
				metrics.Histogram("stage_seconds", obs.DurationBuckets, obs.L("stage", s.Name)).
					Observe(sw.Seconds())
				metrics.Counter("stage_runs_total", obs.L("stage", s.Name)).Inc()
			}
			outs[i].err = err
			outs[i].ran = err == nil
		}(i, s)
	}
	for _, o := range outs {
		<-o.done
	}
	for i, o := range outs {
		if o.err != nil {
			return fmt.Errorf("core: stage %s: %w", stages[i].Name, o.err)
		}
	}
	// All errors nil but something skipped: only possible via cancellation
	// racing the dependency wait; report the context error.
	for _, o := range outs {
		if !o.ran {
			if err := ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("core: pipeline incomplete")
		}
	}
	return nil
}
