// Package service is the resident analysis daemon behind cmd/iotlsd: it
// accepts ClientHello record batches from many sources, pushes them
// through a bounded ingest queue with explicit backpressure and
// seeded-deterministic load shedding, and maintains incrementally merged
// analysis state published as immutable epoch snapshots, so report and
// metrics reads are consistent and lock-free while ingestion continues.
//
// Ingestion is a two-stage pipeline. Workers parse batches into deltas
// in parallel; one merger goroutine owns the live state, folds every
// parsed batch waiting for it into that state in arrival order, and
// then clones and publishes once for the whole group. The backlog alone
// decides how many batches one clone covers: a lightly loaded daemon
// still publishes after every batch.
//
// Robustness is the design center. Admission control reuses the probe
// engine's patterns — a per-source in-queue budget (token-style) and a
// per-source circuit breaker fed by poisoned batches — and sheds load
// with probe.HashFrac, so overload behaviour replays exactly under a
// seed. Workers are panic-isolated: a poisoned batch is quarantined and
// counted, never allowed to kill the daemon. A drain (SIGTERM) stops
// admission, flushes the queue, and publishes a final snapshot whose
// batch-pipeline report is byte-identical to a core.Run over the same
// accepted records. The conservation invariant — accepted + shed +
// quarantined == submitted — holds at every drained quiescent point.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/libcorpus"
	"repro/internal/obs"
	"repro/internal/probe"
)

// Options tunes the daemon. The zero value is usable: withDefaults
// fills in conservative production settings.
type Options struct {
	// Seed drives every shedding and chaos decision via probe.HashFrac,
	// so an overload run replays decision-for-decision.
	Seed int64
	// Workers is the number of ingest workers draining the queue.
	Workers int
	// QueueDepth bounds the ingest queue (in batches); admission above
	// it is shed with 429 semantics.
	QueueDepth int
	// ShedWatermark is the queue-depth fraction where seeded
	// probabilistic shedding begins, ramping linearly to certainty at a
	// full queue. 1.0 sheds only when the queue is full.
	ShedWatermark float64
	// SourceBudget caps the batches one source may have in the queue —
	// the admission token budget that keeps a single flooding source
	// from monopolizing the queue.
	SourceBudget int
	// BreakerThreshold / BreakerCooldown arm the per-source circuit
	// breaker: threshold consecutive quarantined batches open it, and
	// admission fast-fails until the cooldown elapses.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// StallTimeout is the watchdog horizon: a non-empty pipeline with no
	// merge or quarantine for this long fails readiness instead of
	// letting clients keep feeding a wedged daemon.
	StallTimeout time.Duration
	// ChaosPanicFrac injects a seeded worker panic on that fraction of
	// batches — the panic-isolation soak knob. 0 disables.
	ChaosPanicFrac float64
	// ChaosSlow sleeps each batch for this long before merging — the
	// slow-consumer knob that forces queue growth. 0 disables.
	ChaosSlow time.Duration
	// Clock supplies time for shedding, breakers, and the watchdog.
	// nil means the wall clock; tests inject a probe.FakeClock.
	Clock probe.Clock
	// Metrics optionally receives queue-depth/epoch gauges, conservation
	// counters, the ingest latency histogram, and per-phase timings
	// (service_phase_seconds{phase}). nil costs nothing.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.ShedWatermark <= 0 || o.ShedWatermark > 1 {
		o.ShedWatermark = 0.75
	}
	if o.SourceBudget <= 0 {
		o.SourceBudget = 8
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 30 * time.Second
	}
	if o.StallTimeout <= 0 {
		o.StallTimeout = 30 * time.Second
	}
	if o.Clock == nil {
		o.Clock = probe.RealClock()
	}
	return o
}

// Outcome classifies one Submit decision.
type Outcome int

const (
	// OutcomeAccepted: the batch was admitted to the queue. It will be
	// merged (counting as accepted) or quarantined, never dropped.
	OutcomeAccepted Outcome = iota
	// OutcomeShedQueue: the queue was full or above the shed watermark
	// and the seeded coin said shed.
	OutcomeShedQueue
	// OutcomeShedSource: the source exhausted its in-queue budget.
	OutcomeShedSource
	// OutcomeShedBreaker: the source's circuit breaker is open after
	// repeated poisoned batches.
	OutcomeShedBreaker
	// OutcomeShedDraining: the daemon is draining and admits nothing.
	OutcomeShedDraining
)

// Accepted reports whether the batch was admitted.
func (o Outcome) Accepted() bool { return o == OutcomeAccepted }

// String names the outcome for responses and logs.
func (o Outcome) String() string {
	switch o {
	case OutcomeAccepted:
		return "accepted"
	case OutcomeShedQueue:
		return "shed-queue"
	case OutcomeShedSource:
		return "shed-source-budget"
	case OutcomeShedBreaker:
		return "shed-breaker"
	default:
		return "shed-draining"
	}
}

// OutcomeFromString parses an Outcome's String form — the HTTP load
// generator's decoder for /v1/batch response statuses.
func OutcomeFromString(s string) (Outcome, bool) {
	for _, o := range []Outcome{
		OutcomeAccepted, OutcomeShedQueue, OutcomeShedSource, OutcomeShedBreaker, OutcomeShedDraining,
	} {
		if o.String() == s {
			return o, true
		}
	}
	return 0, false
}

// Stats is one consistent read of the conservation counters and queue
// state. After a drain, SubmittedBatches == AcceptedBatches +
// ShedBatches + QuarantinedBatches (and likewise for records).
type Stats struct {
	SubmittedBatches   int64 `json:"submitted_batches"`
	SubmittedRecords   int64 `json:"submitted_records"`
	AcceptedBatches    int64 `json:"accepted_batches"`
	AcceptedRecords    int64 `json:"accepted_records"`
	ShedBatches        int64 `json:"shed_batches"`
	ShedRecords        int64 `json:"shed_records"`
	QuarantinedBatches int64 `json:"quarantined_batches"`
	QuarantinedRecords int64 `json:"quarantined_records"`
	// Epoch is the published snapshot's epoch: accepted batches folded in.
	Epoch int64 `json:"epoch"`
	// Publications counts published snapshots. One publication covers
	// every batch merged in its group, so AcceptedBatches / Publications
	// is the mean number of batches per clone.
	Publications int64 `json:"publications"`
	QueueDepth   int   `json:"queue_depth"`
	// SnapshotAgeSeconds is the staleness of the published snapshot.
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	// IngestP50/P99 are admission-to-publication latencies in seconds:
	// from Submit to the snapshot that first covers the batch. They are
	// quantiles of the most recent latencySamples (4,096) accepted
	// batches, so a long-running daemon's memory and /statz cost stay
	// bounded; the service_ingest_seconds histogram keeps the whole
	// history.
	IngestP50 float64 `json:"ingest_p50_seconds"`
	IngestP99 float64 `json:"ingest_p99_seconds"`
	// ServerFPRuns counts census computations (one per epoch actually
	// read through /v1/serverfp); ServerFPTargets is the host count of
	// the latest census.
	ServerFPRuns    int64 `json:"serverfp_runs"`
	ServerFPTargets int64 `json:"serverfp_targets"`
}

// Conserved reports the conservation invariant: every submitted batch
// and record is accounted for as accepted, shed, or quarantined. It is
// guaranteed only at quiescent points (after Drain); in flight, queued
// batches are none of the three yet.
func (s Stats) Conserved() bool {
	return s.SubmittedBatches == s.AcceptedBatches+s.ShedBatches+s.QuarantinedBatches &&
		s.SubmittedRecords == s.AcceptedRecords+s.ShedRecords+s.QuarantinedRecords
}

// Quarantined describes one poisoned batch set aside by a worker.
type Quarantined struct {
	Source  string `json:"source"`
	Seq     int    `json:"seq"`
	Records int    `json:"records"`
	Reason  string `json:"reason"`
}

// batchItem is one admitted batch in flight.
type batchItem struct {
	seq     int
	source  string
	records []dataset.Record
	at      time.Time
}

// parsedBatch is a batch a worker has parsed, on its way to the merger.
type parsedBatch struct {
	item  batchItem
	delta *analysis.Delta
}

// Service is the resident ingest-and-analyze daemon core, transport
// agnostic: Handler wraps it in HTTP, tests drive Submit directly.
type Service struct {
	opts    Options
	matcher *fingerprint.Matcher // shared by every snapshot report render

	// mu guards admission: lifecycle flag, queue sends, per-source
	// budgets and breakers, and the submission sequence. depth counts
	// admitted-but-uncompleted batches; unlike len(queue) it moves only
	// at admission and completion, never at dequeue, so shed decisions
	// are a pure function of the submit/completion interleaving.
	mu       sync.Mutex
	draining bool
	queue    chan batchItem
	depth    int
	inQueue  map[string]int
	breakers map[string]*probe.Breaker
	seq      int
	quars    []Quarantined

	// handoff carries parsed batches from the workers to the merger and
	// holds at most Workers of them. A deeper buffer would not speed up
	// the merger; it would only let workers parse further ahead of it
	// and keep more parsed deltas in memory. Admission is unaffected
	// either way: a batch counts in depth until a publication covers it.
	// flushed closes once the merger has published its last group.
	handoff chan parsedBatch
	flushed chan struct{}

	// live and batches belong to the merger goroutine alone; snapshots
	// are clones of live published through snap. stateMu guards the
	// accepted record log, which the merger appends to in merge order.
	live         *analysis.Client
	batches      int64
	snap         atomic.Pointer[Snapshot]
	publications atomic.Int64
	stateMu      sync.Mutex
	accepted     []dataset.Record

	// lastActivity is the watchdog heartbeat: unix nanos of the last
	// merge or quarantine (or service start).
	lastActivity atomic.Int64

	latMu     sync.Mutex
	latencies latencyWindow

	// sfpMu guards the per-epoch server-fingerprint census cache
	// (serverfp.go); sfpRuns/sfpTargets feed /statz.
	sfpMu      sync.Mutex
	sfpView    *ServerFPView
	sfpRuns    atomic.Int64
	sfpTargets atomic.Int64

	submittedB, submittedR     atomic.Int64
	acceptedB, acceptedR       atomic.Int64
	shedB, shedR               atomic.Int64
	quarantinedB, quarantinedR atomic.Int64

	// ingest is the parse state every worker's NewDelta shares for the
	// service's whole life.
	ingest *analysis.IngestState

	// phases are the service_phase_seconds{phase} series, nil without
	// a registry: decode (HTTP body to records), parse (NewDelta), merge
	// (one merge group) and publish (clone and store).
	phases struct{ decode, parse, merge, publish *obs.Histogram }

	gate   *gate
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// New builds and starts the service: workers begin draining the queue
// immediately. Stop it with Drain.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	s := &Service{
		opts:     opts,
		queue:    make(chan batchItem, opts.QueueDepth),
		inQueue:  map[string]int{},
		breakers: map[string]*probe.Breaker{},
		handoff:  make(chan parsedBatch, opts.Workers),
		flushed:  make(chan struct{}),
		live:     analysis.NewClientEmpty(),
		ingest:   analysis.NewIngestState(),
		gate:     newGate(),
	}
	phase := func(name string) *obs.Histogram {
		return opts.Metrics.Histogram("service_phase_seconds", obs.DurationBuckets, obs.L("phase", name))
	}
	s.phases.decode, s.phases.parse = phase("decode"), phase("parse")
	s.phases.merge, s.phases.publish = phase("merge"), phase("publish")
	s.matcher = libcorpus.NewMatcher()
	s.ctx, s.cancel = context.WithCancel(context.Background())
	now := opts.Clock.Now()
	s.lastActivity.Store(now.UnixNano())
	s.snap.Store(&Snapshot{At: now, Client: analysis.NewClientEmpty()})
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	// Workers exit only after BeginDrain closes the queue; once the last
	// one has handed off its batch, the merger may flush and stop.
	go func() {
		s.wg.Wait()
		close(s.handoff)
	}()
	go s.merger()
	return s
}

// Submit offers one batch for admission. The decision is immediate —
// admission never blocks on the workers — and deterministic given the
// seed and the interleaving of submissions and merges.
func (s *Service) Submit(source string, records []dataset.Record) Outcome {
	s.submittedB.Add(1)
	s.submittedR.Add(int64(len(records)))

	s.mu.Lock()
	seq := s.seq
	s.seq++
	if s.draining {
		s.mu.Unlock()
		return s.shed(source, records, OutcomeShedDraining)
	}
	now := s.opts.Clock.Now()
	br := s.breakers[source]
	if br == nil {
		br = probe.NewBreaker(s.opts.BreakerThreshold, s.opts.BreakerCooldown)
		s.breakers[source] = br
	}
	if !br.Allow(now) {
		s.mu.Unlock()
		return s.shed(source, records, OutcomeShedBreaker)
	}
	if s.inQueue[source] >= s.opts.SourceBudget {
		s.mu.Unlock()
		return s.shed(source, records, OutcomeShedSource)
	}
	if s.depth >= s.opts.QueueDepth {
		s.mu.Unlock()
		return s.shed(source, records, OutcomeShedQueue)
	}
	if wm := int(float64(s.opts.QueueDepth) * s.opts.ShedWatermark); s.depth >= wm {
		// Above the watermark, shed a seeded fraction that ramps
		// linearly from ~0 at the watermark to 1 at a full queue, so
		// backpressure arrives before the hard limit does.
		frac := float64(s.depth-wm+1) / float64(s.opts.QueueDepth-wm+1)
		if probe.HashFrac(s.opts.Seed, "shed", source, "", seq) < frac {
			s.mu.Unlock()
			return s.shed(source, records, OutcomeShedQueue)
		}
	}
	s.inQueue[source]++
	s.depth++
	// Holding mu with depth < QueueDepth guarantees this send cannot
	// block: Submit is the only sender, items leave the channel no
	// later than they complete, and the channel's capacity matches the
	// depth bound.
	s.queue <- batchItem{seq: seq, source: source, records: records, at: now}
	s.mu.Unlock()
	s.gauges()
	return OutcomeAccepted
}

func (s *Service) shed(source string, records []dataset.Record, o Outcome) Outcome {
	s.shedB.Add(1)
	s.shedR.Add(int64(len(records)))
	if m := s.opts.Metrics; m != nil {
		m.Counter("service_shed_total", obs.L("reason", o.String()), obs.L("source", source)).Inc()
	}
	return o
}

// RetryAfter suggests how long a shed source should wait before
// resubmitting: the breaker cooldown when the breaker said no,
// otherwise one second of queue backoff.
func (s *Service) RetryAfter(o Outcome) time.Duration {
	if o == OutcomeShedBreaker {
		return s.opts.BreakerCooldown
	}
	return time.Second
}

func (s *Service) worker() {
	defer s.wg.Done()
	for item := range s.queue {
		// The gate sits between dequeue and processing: PauseWorkers
		// freezes completions (and therefore depth and budgets) without
		// affecting what admission sees.
		s.gate.wait()
		if delta := s.parse(item); delta != nil {
			s.handoff <- parsedBatch{item: item, delta: delta}
			continue
		}
		s.complete(item, false)
		s.gauges()
	}
}

// parse turns one batch into a delta, quarantining it and returning nil
// on parse failure or panic. The recover is the daemon's panic
// isolation: a poisoned batch costs a counter and a quarantine entry,
// never the process. Nothing after the hand-off quarantines a batch.
func (s *Service) parse(item batchItem) (delta *analysis.Delta) {
	defer func() {
		if r := recover(); r != nil {
			s.quarantine(item, fmt.Sprintf("panic: %v", r))
			delta = nil
		}
	}()
	if f := s.opts.ChaosPanicFrac; f > 0 &&
		probe.HashFrac(s.opts.Seed, "chaos-panic", item.source, "", item.seq) < f {
		panic("service: chaos: injected worker panic")
	}
	if d := s.opts.ChaosSlow; d > 0 {
		if err := s.opts.Clock.Sleep(s.ctx, d); err != nil {
			s.quarantine(item, fmt.Sprintf("aborted: %v", err))
			return nil
		}
	}
	t := startPhase(s.phases.parse)
	d, err := s.ingest.NewDelta(item.records)
	t.stop()
	if err != nil {
		s.quarantine(item, err.Error())
		return nil
	}
	return d
}

// merger owns the live client. It takes one parsed batch, drains every
// other batch already waiting in the hand-off, and publishes the group.
// Parsing, the only step that can fail on bad input, stays in the
// workers, and the merger holds no lock across a merge.
func (s *Service) merger() {
	defer close(s.flushed)
	var group []parsedBatch
	for p := range s.handoff {
		group = append(group[:0], p)
	waiting:
		for {
			select {
			case p, ok := <-s.handoff:
				if !ok {
					break waiting
				}
				group = append(group, p)
			default:
				break waiting
			}
		}
		s.publish(group)
		clear(group) // drop the merged deltas and records
	}
}

// publish merges a group in arrival order, appends its records to the
// accepted log in the same order, clones and publishes once, and only
// then completes the group's batches. Every snapshot is therefore the
// analysis of a prefix of the accepted log, and a batch leaves the
// queue accounting only once a published snapshot covers it.
func (s *Service) publish(group []parsedBatch) {
	t := startPhase(s.phases.merge)
	for _, p := range group {
		s.live.MergeDelta(p.delta)
	}
	s.stateMu.Lock()
	for _, p := range group {
		s.accepted = append(s.accepted, p.item.records...)
	}
	records := int64(len(s.accepted))
	s.stateMu.Unlock()
	s.batches += int64(len(group))
	t.stop()

	t = startPhase(s.phases.publish)
	now := s.opts.Clock.Now()
	snap := &Snapshot{
		Epoch:   s.batches,
		Batches: s.batches,
		Records: records,
		At:      now,
		Client:  s.live.Clone(),
	}
	// Only the merger stores snapshots, so epochs are stored in order
	// and never regress. Readers stay lock-free: they only load the
	// pointer.
	s.snap.Store(snap)
	t.stop()
	s.publications.Add(1)
	s.lastActivity.Store(now.UnixNano())

	m := s.opts.Metrics // a nil registry hands out no-op series
	m.Gauge("service_epoch").Set(snap.Epoch)
	m.Counter("service_publications_total").Inc()
	ingest := m.Histogram("service_ingest_seconds", obs.DurationBuckets)
	acceptedRecords := m.Counter("service_accepted_records_total")
	for _, p := range group {
		n := int64(len(p.item.records))
		s.acceptedB.Add(1)
		s.acceptedR.Add(n)
		lat := now.Sub(p.item.at).Seconds()
		s.latMu.Lock()
		s.latencies.add(lat)
		s.latMu.Unlock()
		ingest.Observe(lat)
		acceptedRecords.Add(n)
		s.complete(p.item, true)
	}
	s.gauges()
}

// complete retires a batch from the admission accounting: depth and the
// source's in-queue budget move only here, never at dequeue, so shed
// decisions are a pure function of the submit/completion interleaving.
// A merged batch also reports success to its source's breaker.
func (s *Service) complete(item batchItem, merged bool) {
	s.mu.Lock()
	if merged {
		s.breakers[item.source].Success()
	}
	s.depth--
	if s.inQueue[item.source]--; s.inQueue[item.source] <= 0 {
		delete(s.inQueue, item.source)
	}
	s.mu.Unlock()
}

func (s *Service) quarantine(item batchItem, reason string) {
	s.quarantinedB.Add(1)
	s.quarantinedR.Add(int64(len(item.records)))
	now := s.opts.Clock.Now()
	s.lastActivity.Store(now.UnixNano())
	s.mu.Lock()
	s.quars = append(s.quars, Quarantined{
		Source: item.source, Seq: item.seq, Records: len(item.records), Reason: reason,
	})
	if len(s.quars) > 64 {
		s.quars = s.quars[len(s.quars)-64:]
	}
	br := s.breakers[item.source]
	s.mu.Unlock()
	if br != nil {
		br.Failure(now)
	}
	if m := s.opts.Metrics; m != nil {
		m.Counter("service_quarantined_total", obs.L("source", item.source)).Inc()
	}
}

func (s *Service) gauges() {
	if m := s.opts.Metrics; m != nil {
		s.mu.Lock()
		depth := s.depth
		s.mu.Unlock()
		m.Gauge("service_queue_depth").Set(int64(depth))
	}
}

// PauseWorkers holds every worker before its next dequeue — the
// slow-consumer chaos knob, and the lever deterministic tests use to
// control the admission interleaving.
func (s *Service) PauseWorkers() { s.gate.pause() }

// ResumeWorkers releases paused workers.
func (s *Service) ResumeWorkers() { s.gate.resume() }

// BeginDrain stops admission: every later Submit sheds with
// OutcomeShedDraining and readiness reports draining. Idempotent.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.gate.resume() // a paused daemon must still be able to drain
}

// AwaitDrain waits, after BeginDrain, for the workers to flush the
// queue into the hand-off and for the merger to publish the last group.
// On deadline it cancels in-flight chaos sleeps and reports an error —
// the only path on which accepted batches can be lost.
func (s *Service) AwaitDrain(ctx context.Context) error {
	select {
	case <-s.flushed:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-s.flushed
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
}

// Drain is BeginDrain + AwaitDrain: stop accepting, flush the queue,
// leave the final snapshot published.
func (s *Service) Drain(ctx context.Context) error {
	s.BeginDrain()
	return s.AwaitDrain(ctx)
}

// Draining reports whether BeginDrain has run.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Ready is the readiness probe: false while draining, and false when
// the watchdog sees a non-empty pipeline with no merge or quarantine
// for StallTimeout (a wedged daemon must stop attracting traffic).
func (s *Service) Ready() (bool, string) {
	s.mu.Lock()
	draining := s.draining
	depth := s.depth
	s.mu.Unlock()
	if draining {
		return false, "draining"
	}
	if depth > 0 {
		idle := s.opts.Clock.Now().Sub(time.Unix(0, s.lastActivity.Load()))
		if idle > s.opts.StallTimeout {
			return false, fmt.Sprintf("stalled: no progress for %s with %d batches pending", idle, depth)
		}
	}
	return true, "ready"
}

// Stats reads the counters. Conservation is guaranteed after Drain.
func (s *Service) Stats() Stats {
	st := Stats{
		SubmittedBatches:   s.submittedB.Load(),
		SubmittedRecords:   s.submittedR.Load(),
		AcceptedBatches:    s.acceptedB.Load(),
		AcceptedRecords:    s.acceptedR.Load(),
		ShedBatches:        s.shedB.Load(),
		ShedRecords:        s.shedR.Load(),
		QuarantinedBatches: s.quarantinedB.Load(),
		QuarantinedRecords: s.quarantinedR.Load(),
	}
	s.mu.Lock()
	st.QueueDepth = s.depth
	s.mu.Unlock()
	st.Publications = s.publications.Load()
	if snap := s.snap.Load(); snap != nil {
		st.Epoch = snap.Epoch
		st.SnapshotAgeSeconds = s.opts.Clock.Now().Sub(snap.At).Seconds()
	}
	st.IngestP50, st.IngestP99 = s.latencyQuantiles()
	st.ServerFPRuns = s.sfpRuns.Load()
	st.ServerFPTargets = s.sfpTargets.Load()
	return st
}

func (s *Service) latencyQuantiles() (p50, p99 float64) {
	s.latMu.Lock()
	lats := s.latencies.sample()
	s.latMu.Unlock()
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Float64s(lats)
	q := func(f float64) float64 {
		i := int(f * float64(len(lats)-1))
		return lats[i]
	}
	return q(0.50), q(0.99)
}

// latencySamples is how many of the most recent ingest latencies the
// /statz quantiles cover.
const latencySamples = 4096

// latencyWindow is a ring of the latest latencySamples latencies: it
// holds a fixed array however long the daemon runs.
type latencyWindow struct {
	buf  [latencySamples]float64
	next int // slot the next latency overwrites
	n    int // filled slots, at most latencySamples
}

func (w *latencyWindow) add(lat float64) {
	w.buf[w.next] = lat
	w.next = (w.next + 1) % latencySamples
	w.n = min(w.n+1, latencySamples)
}

// sample copies the window's latencies, oldest first.
func (w *latencyWindow) sample() []float64 {
	out := make([]float64, 0, w.n)
	if w.n == latencySamples {
		out = append(out, w.buf[w.next:]...)
		return append(out, w.buf[:w.next]...)
	}
	return append(out, w.buf[:w.n]...)
}

// QuarantineLog returns the retained quarantine entries, newest last.
func (s *Service) QuarantineLog() []Quarantined {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Quarantined(nil), s.quars...)
}

// AcceptedRecords copies the accepted record log — the exact input a
// batch core.Run needs to reproduce the drained daemon's final report.
func (s *Service) AcceptedRecords() []dataset.Record {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return append([]dataset.Record(nil), s.accepted...)
}

// ErrNotDrained: FinalReport requires a drained daemon; mid-flight the
// accepted log is still moving.
var ErrNotDrained = errors.New("service: final report requires a drained service")

// FinalReport runs the full batch pipeline (including the probe world)
// over the accepted records and writes the study report. cfg supplies
// Seed/Scale/MinSNIUsers/Workers; the dataset is always the canonical
// reconstruction of the accepted log, so the bytes match a batch
// core.Run handed the same records.
func (s *Service) FinalReport(ctx context.Context, w io.Writer, cfg core.Config) error {
	if !s.Draining() {
		return ErrNotDrained
	}
	cfg.Dataset = dataset.FromRecords(s.AcceptedRecords())
	st, err := core.Run(ctx, cfg)
	if err != nil {
		return err
	}
	st.WriteReport(w)
	return nil
}

// phaseTimer times one daemon phase into its service_phase_seconds
// series. Started on a nil histogram (no registry attached) it never
// reads the clock.
type phaseTimer struct {
	h  *obs.Histogram
	sw obs.Stopwatch
}

func startPhase(h *obs.Histogram) phaseTimer {
	if h == nil {
		return phaseTimer{}
	}
	return phaseTimer{h: h, sw: obs.NewStopwatch()}
}

func (t phaseTimer) stop() {
	if t.h != nil {
		t.h.Observe(t.sw.Seconds())
	}
}

// gate is the worker hold point: open (closed channel) by default,
// pause swaps in a blocking channel, resume closes it again.
type gate struct {
	mu sync.Mutex
	ch chan struct{}
}

func newGate() *gate {
	g := &gate{ch: make(chan struct{})}
	close(g.ch)
	return g
}

func (g *gate) wait() {
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	<-ch
}

func (g *gate) pause() {
	g.mu.Lock()
	select {
	case <-g.ch:
		g.ch = make(chan struct{})
	default:
	}
	g.mu.Unlock()
}

func (g *gate) resume() {
	g.mu.Lock()
	select {
	case <-g.ch:
	default:
		close(g.ch)
	}
	g.mu.Unlock()
}
