package scenario

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/service"
)

// ServiceCase is one cell of the service-mode verification matrix: the
// resident daemon's ingest path driven by the seeded load generator,
// then drained and held to the same cross-cutting laws the batch
// pipeline obeys.
type ServiceCase struct {
	// Seed drives the traffic generator, the admission coin flips, and
	// the batch-equivalence pipeline run.
	Seed int64
	// Scale sizes the record population the generator draws from.
	Scale float64
	// QueueDepth / ShedWatermark / SourceBudget shape admission.
	QueueDepth    int
	ShedWatermark float64
	SourceBudget  int
	// Batches × BatchSize is the offered load across Sources.
	Batches   int
	BatchSize int
	Sources   int
	// PoisonFrac corrupts that fraction of batches (quarantine path).
	PoisonFrac float64
	// Overload pauses the workers while the load is offered, so the
	// admission sequence — and therefore every shed decision — is a pure
	// function of the seed and submit order, checkable run against run.
	Overload bool
}

// Name is the case's stable identifier in violations and JSON output.
func (c ServiceCase) Name() string {
	mode := "steady"
	if c.Overload {
		mode = "overload"
	}
	return fmt.Sprintf("service/seed%d/q%d/src%d/poison%g/%s",
		c.Seed, c.QueueDepth, c.SourceBudget, c.PoisonFrac, mode)
}

// ServiceCases is the fixed service-mode cell list: a clean steady-state
// cell, a deterministic-overload cell, and a poison/quarantine cell.
func ServiceCases() []ServiceCase {
	return []ServiceCase{
		{Seed: 3, Scale: 0.05, QueueDepth: 256, ShedWatermark: 1.0, SourceBudget: 256,
			Batches: 40, BatchSize: 20, Sources: 3},
		{Seed: 5, Scale: 0.05, QueueDepth: 8, ShedWatermark: 0.5, SourceBudget: 3,
			Batches: 40, BatchSize: 10, Sources: 4, Overload: true},
		{Seed: 9, Scale: 0.05, QueueDepth: 256, ShedWatermark: 1.0, SourceBudget: 256,
			Batches: 40, BatchSize: 15, Sources: 2, PoisonFrac: 0.15},
	}
}

// ServiceResult summarizes one service cell for the JSON report.
type ServiceResult struct {
	Case        string `json:"case"`
	Submitted   int64  `json:"submitted_batches"`
	Accepted    int64  `json:"accepted_batches"`
	Shed        int64  `json:"shed_batches"`
	Quarantined int64  `json:"quarantined_batches"`
	Records     int64  `json:"accepted_records"`
	Violations  int    `json:"violations"`
}

// shedProfile is the deterministic fingerprint of one cell execution:
// every conservation counter, no wall-clock fields.
type shedProfile struct {
	submittedB, submittedR     int64
	acceptedB, acceptedR       int64
	shedB, shedR               int64
	quarantinedB, quarantinedR int64
}

func profileOf(st service.Stats) shedProfile {
	return shedProfile{
		st.SubmittedBatches, st.SubmittedRecords,
		st.AcceptedBatches, st.AcceptedRecords,
		st.ShedBatches, st.ShedRecords,
		st.QuarantinedBatches, st.QuarantinedRecords,
	}
}

// runServiceCell drives one service through the seeded generator and
// drains it, returning the service for inspection.
func runServiceCell(ctx context.Context, c ServiceCase) (*service.Service, error) {
	svc := service.New(service.Options{
		Seed:             c.Seed,
		Workers:          2,
		QueueDepth:       c.QueueDepth,
		ShedWatermark:    c.ShedWatermark,
		SourceBudget:     c.SourceBudget,
		BreakerThreshold: 1 << 20, // breaker determinism is a unit-test concern; cells isolate admission
	})
	if c.Overload {
		svc.PauseWorkers()
	}
	_, err := service.RunLoad(ctx, func(source string, recs []dataset.Record) (service.Outcome, error) {
		return svc.Submit(source, recs), nil
	}, service.LoadOptions{
		Seed:       c.Seed,
		Scale:      c.Scale,
		BatchSize:  c.BatchSize,
		Batches:    c.Batches,
		Sources:    c.Sources,
		PoisonFrac: c.PoisonFrac,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: loadgen: %w", c.Name(), err)
	}
	if c.Overload {
		svc.ResumeWorkers()
	}
	if err := svc.Drain(ctx); err != nil {
		return nil, fmt.Errorf("scenario: %s: drain: %w", c.Name(), err)
	}
	return svc, nil
}

// RunServiceCase executes one service cell and checks its laws:
//
//   - conservation — accepted + shed + quarantined == submitted, at
//     batch and record granularity;
//   - determinism — an overload cell rerun end to end produces the
//     identical conservation profile (every shed decision replays);
//   - batch equivalence — the drained daemon's final report is
//     byte-identical to a fresh core.Run over the same accepted
//     records, across different worker counts;
//   - label invariance — core.Run over the accepted records with every
//     stack_id set to one label is byte-identical to that batch report:
//     a fingerprint is its hello's content, not the label a client
//     sends with it.
func RunServiceCase(ctx context.Context, c ServiceCase) (ServiceResult, []Violation, error) {
	name := c.Name()
	res := ServiceResult{Case: name}
	var vs []Violation
	defect := func(invariant, format string, args ...interface{}) {
		vs = append(vs, Violation{Case: name, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}

	svc, err := runServiceCell(ctx, c)
	if err != nil {
		return res, nil, err
	}
	st := svc.Stats()
	res.Submitted = st.SubmittedBatches
	res.Accepted = st.AcceptedBatches
	res.Shed = st.ShedBatches
	res.Quarantined = st.QuarantinedBatches
	res.Records = st.AcceptedRecords

	if !st.Conserved() {
		defect("service-conservation",
			"accepted %d + shed %d + quarantined %d != submitted %d (records %d+%d+%d != %d)",
			st.AcceptedBatches, st.ShedBatches, st.QuarantinedBatches, st.SubmittedBatches,
			st.AcceptedRecords, st.ShedRecords, st.QuarantinedRecords, st.SubmittedRecords)
	}
	if st.SubmittedBatches != int64(c.Batches) {
		defect("service-conservation", "submitted %d batches, generator offered %d", st.SubmittedBatches, c.Batches)
	}
	accepted := svc.AcceptedRecords()
	if int64(len(accepted)) != st.AcceptedRecords {
		defect("service-conservation", "retained %d accepted records, counters say %d", len(accepted), st.AcceptedRecords)
	}
	if c.Overload && st.ShedBatches == 0 {
		defect("service-overload", "overload cell shed nothing; admission pressure never bound")
	}
	if c.PoisonFrac > 0 && st.QuarantinedBatches == 0 {
		defect("service-quarantine", "poison cell quarantined nothing")
	}

	// Determinism: the whole cell replays to the same profile.
	if c.Overload {
		again, err := runServiceCell(ctx, c)
		if err != nil {
			return res, vs, err
		}
		if p1, p2 := profileOf(st), profileOf(again.Stats()); p1 != p2 {
			defect("service-determinism", "rerun diverged: %+v vs %+v", p1, p2)
		}
	}

	// Batch equivalence: the drained report equals a fresh pipeline run
	// over the accepted records — with different worker counts, so the
	// service path inherits the worker-invariance law too.
	cfg := core.DefaultConfig()
	cfg.Seed, cfg.Scale, cfg.Workers = c.Seed, c.Scale, 2
	var got bytes.Buffer
	if err := svc.FinalReport(ctx, &got, cfg); err != nil {
		return res, vs, fmt.Errorf("scenario: %s: final report: %w", name, err)
	}
	batchCfg := cfg
	batchCfg.Workers = 3
	batchCfg.Dataset = dataset.FromRecords(accepted)
	study, err := core.Run(ctx, batchCfg)
	if err != nil {
		return res, vs, fmt.Errorf("scenario: %s: batch run: %w", name, err)
	}
	var want bytes.Buffer
	study.WriteReport(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		defect("service-batch-equivalence", "drained report diverges from batch core.Run over the accepted records: %s",
			LineDiff(got.Bytes(), want.Bytes(), 5))
	}

	relabelled := append([]dataset.Record(nil), accepted...)
	for i := range relabelled {
		relabelled[i].StackID = "relabelled"
	}
	labelCfg := batchCfg
	labelCfg.Dataset = dataset.FromRecords(relabelled)
	study, err = core.Run(ctx, labelCfg)
	if err != nil {
		return res, vs, fmt.Errorf("scenario: %s: relabelled run: %w", name, err)
	}
	var relabelledReport bytes.Buffer
	study.WriteReport(&relabelledReport)
	if !bytes.Equal(relabelledReport.Bytes(), want.Bytes()) {
		defect("service-label-invariance", "one stack_id on every accepted record changes the batch report: %s",
			LineDiff(relabelledReport.Bytes(), want.Bytes(), 5))
	}

	res.Violations = len(vs)
	return res, vs, nil
}
