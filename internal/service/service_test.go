package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/probe"
)

var testData struct {
	once sync.Once
	recs []dataset.Record
}

// testRecords returns a small shared record stream (~hundreds of
// records) all service tests batch from.
func testRecords(t *testing.T) []dataset.Record {
	t.Helper()
	testData.once.Do(func() {
		ds := dataset.Generate(dataset.Config{Seed: 11, Scale: 0.02})
		testData.recs = ds.Records.Rows()
	})
	if len(testData.recs) < 100 {
		t.Fatalf("test dataset too small: %d records", len(testData.recs))
	}
	return testData.recs
}

// batches slices recs into n-record batches.
func batches(recs []dataset.Record, n int) [][]dataset.Record {
	var out [][]dataset.Record
	for lo := 0; lo < len(recs); lo += n {
		hi := lo + n
		if hi > len(recs) {
			hi = len(recs)
		}
		out = append(out, recs[lo:hi])
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timeout waiting for %s", what)
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func drain(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func poisoned(r dataset.Record) dataset.Record {
	r.Raw = []byte{0xff}
	return r
}

// TestDeltaMergeMatchesBatch: a client grown batch-by-batch through the
// service equals the batch analysis over the same records — counts,
// maps, and rendered report bytes.
func TestDeltaMergeMatchesBatch(t *testing.T) {
	recs := testRecords(t)
	s := New(Options{Seed: 1, Workers: 3, QueueDepth: 4096, SourceBudget: 4096})
	for i, b := range batches(recs, 37) {
		if got := s.Submit(fmt.Sprintf("src-%d", i%5), b); !got.Accepted() {
			t.Fatalf("batch %d: outcome %v", i, got)
		}
	}
	drain(t, s)

	st := s.Stats()
	if !st.Conserved() {
		t.Fatalf("conservation violated: %+v", st)
	}
	if st.AcceptedRecords != int64(len(recs)) {
		t.Fatalf("accepted %d records, want %d", st.AcceptedRecords, len(recs))
	}

	batch, err := analysis.NewClientWorkers(dataset.FromRecords(recs), 3)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Client.NumFingerprints() != batch.NumFingerprints() {
		t.Fatalf("fingerprints: service %d, batch %d", snap.Client.NumFingerprints(), batch.NumFingerprints())
	}
	if !reflect.DeepEqual(snap.Client.Table12(), batch.Table12()) {
		t.Fatalf("version counts diverge:\nservice %v\nbatch   %v", snap.Client.Table12(), batch.Table12())
	}
	devs := batch.Devices()
	if !reflect.DeepEqual(snap.Client.Devices(), devs) {
		t.Fatal("device sets diverge")
	}
	for _, dev := range devs {
		if !reflect.DeepEqual(snap.Client.DevicePrints(dev), batch.DevicePrints(dev)) {
			t.Fatalf("device %s: fingerprints diverge", dev)
		}
	}

	var got, want bytes.Buffer
	snap.WriteReport(&got, s.matcher, 2)
	alt := &Snapshot{Epoch: snap.Epoch, Batches: snap.Batches, Records: snap.Records, At: snap.At, Client: batch}
	alt.WriteReport(&want, s.matcher, 5)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("snapshot report bytes diverge from batch render (%d vs %d bytes)", got.Len(), want.Len())
	}
}

// TestOverloadShedDeterministicAndConserved: with workers paused the
// admission sequence is a pure function of the seed and submit order,
// so two identical runs shed identically; conservation holds after the
// drain either way.
func TestOverloadShedDeterministicAndConserved(t *testing.T) {
	recs := testRecords(t)
	run := func() ([]Outcome, Stats) {
		clk := probe.NewFakeClock(time.Unix(0, 0))
		s := New(Options{
			Seed: 42, Workers: 2, QueueDepth: 8, ShedWatermark: 0.5,
			SourceBudget: 3, Clock: clk,
		})
		s.PauseWorkers()
		var outs []Outcome
		for i := 0; i < 40; i++ {
			lo := (i * 5) % (len(recs) - 5)
			outs = append(outs, s.Submit(fmt.Sprintf("src-%d", i%4), recs[lo:lo+5]))
		}
		s.ResumeWorkers()
		drain(t, s)
		return outs, s.Stats()
	}
	o1, st1 := run()
	o2, st2 := run()
	if !reflect.DeepEqual(o1, o2) {
		t.Fatalf("shed decisions not deterministic:\n%v\n%v", o1, o2)
	}
	if !st1.Conserved() || !st2.Conserved() {
		t.Fatalf("conservation violated: %+v / %+v", st1, st2)
	}
	if st1.ShedBatches == 0 {
		t.Fatal("overload run shed nothing; test misconfigured")
	}
	if st1.AcceptedBatches == 0 {
		t.Fatal("overload run accepted nothing; test misconfigured")
	}
	if st1.SubmittedBatches != 40 {
		t.Fatalf("submitted %d, want 40", st1.SubmittedBatches)
	}
	// The shed decisions must also cover every category the run hit:
	// queue pressure and source budgets both bind with these settings.
	seen := map[Outcome]bool{}
	for _, o := range o1 {
		seen[o] = true
	}
	if !seen[OutcomeShedSource] {
		t.Fatal("source budget never bound; test misconfigured")
	}
	if !seen[OutcomeShedQueue] {
		t.Fatal("queue shedding never bound; test misconfigured")
	}
}

// TestPoisonQuarantineOpensBreaker: poisoned batches are quarantined,
// repeated poison opens the source's breaker (admission fast-fails),
// and the cooldown lets a half-open trial close it again.
func TestPoisonQuarantineOpensBreaker(t *testing.T) {
	recs := testRecords(t)
	clk := probe.NewFakeClock(time.Unix(0, 0))
	s := New(Options{
		Seed: 7, Workers: 1, QueueDepth: 16,
		BreakerThreshold: 2, BreakerCooldown: time.Minute, Clock: clk,
	})
	bad := []dataset.Record{poisoned(recs[0]), recs[1]}

	for i := 0; i < 2; i++ {
		if got := s.Submit("sick", bad); !got.Accepted() {
			t.Fatalf("poison batch %d: outcome %v", i, got)
		}
		waitFor(t, "quarantine", func() bool {
			return s.Stats().QuarantinedBatches == int64(i+1)
		})
	}
	if got := s.Submit("sick", recs[:3]); got != OutcomeShedBreaker {
		t.Fatalf("after %d quarantines: outcome %v, want shed-breaker", 2, got)
	}
	// Healthy sources are unaffected.
	if got := s.Submit("healthy", recs[:3]); !got.Accepted() {
		t.Fatalf("healthy source: outcome %v", got)
	}
	// After the cooldown a half-open trial is admitted; its success
	// closes the breaker.
	clk.Advance(2 * time.Minute)
	if got := s.Submit("sick", recs[3:6]); !got.Accepted() {
		t.Fatalf("half-open trial: outcome %v", got)
	}
	waitFor(t, "trial merge", func() bool { return s.Stats().AcceptedBatches >= 2 })
	if got := s.Submit("sick", recs[6:9]); !got.Accepted() {
		t.Fatalf("after recovery: outcome %v", got)
	}
	drain(t, s)
	st := s.Stats()
	if !st.Conserved() {
		t.Fatalf("conservation violated: %+v", st)
	}
	log := s.QuarantineLog()
	if len(log) != 2 {
		t.Fatalf("quarantine log has %d entries, want 2", len(log))
	}
	if log[0].Source != "sick" || !strings.Contains(log[0].Reason, "record 0") {
		t.Fatalf("unexpected quarantine entry: %+v", log[0])
	}
}

// TestPanicIsolation: a panicking worker quarantines the batch and the
// daemon keeps serving — the poison never kills the process.
func TestPanicIsolation(t *testing.T) {
	recs := testRecords(t)
	s := New(Options{Seed: 3, Workers: 2, QueueDepth: 32, ChaosPanicFrac: 1.0, BreakerThreshold: 1000})
	for i := 0; i < 5; i++ {
		if got := s.Submit("src", recs[i*3:i*3+3]); !got.Accepted() {
			t.Fatalf("batch %d: outcome %v", i, got)
		}
	}
	drain(t, s)
	st := s.Stats()
	if st.QuarantinedBatches != 5 || st.AcceptedBatches != 0 {
		t.Fatalf("want 5 quarantined / 0 accepted, got %+v", st)
	}
	if !st.Conserved() {
		t.Fatalf("conservation violated: %+v", st)
	}
	for _, q := range s.QuarantineLog() {
		if !strings.Contains(q.Reason, "panic") {
			t.Fatalf("quarantine reason %q does not mention panic", q.Reason)
		}
	}
}

// TestWatchdogAndReadiness: a wedged pipeline (queued work, no
// progress) fails readiness after StallTimeout; progress or an empty
// queue restores it; draining fails it permanently.
func TestWatchdogAndReadiness(t *testing.T) {
	recs := testRecords(t)
	clk := probe.NewFakeClock(time.Unix(0, 0))
	s := New(Options{Seed: 5, Workers: 1, QueueDepth: 16, StallTimeout: 10 * time.Second, Clock: clk})
	if ok, reason := s.Ready(); !ok {
		t.Fatalf("fresh service not ready: %s", reason)
	}
	s.PauseWorkers()
	if got := s.Submit("src", recs[:4]); !got.Accepted() {
		t.Fatalf("outcome %v", got)
	}
	clk.Advance(11 * time.Second)
	if ok, reason := s.Ready(); ok || !strings.Contains(reason, "stalled") {
		t.Fatalf("want stalled readiness failure, got ok=%v reason=%q", ok, reason)
	}
	s.ResumeWorkers()
	waitFor(t, "queue flush", func() bool { return s.Stats().QueueDepth == 0 })
	if ok, reason := s.Ready(); !ok {
		t.Fatalf("recovered service not ready: %s", reason)
	}
	s.BeginDrain()
	if ok, reason := s.Ready(); ok || reason != "draining" {
		t.Fatalf("draining service: ok=%v reason=%q", ok, reason)
	}
	if got := s.Submit("src", recs[:4]); got != OutcomeShedDraining {
		t.Fatalf("submit during drain: outcome %v", got)
	}
	drain(t, s)
	if !s.Stats().Conserved() {
		t.Fatalf("conservation violated: %+v", s.Stats())
	}
}

// TestFinalReportRequiresDrain: the batch-equivalent report is only
// defined at a quiescent point.
func TestFinalReportRequiresDrain(t *testing.T) {
	s := New(Options{Seed: 9, Workers: 1})
	var buf bytes.Buffer
	if err := s.FinalReport(context.Background(), &buf, core.DefaultConfig()); err == nil {
		t.Fatal("FinalReport before drain succeeded")
	}
	drain(t, s)
}

// TestIngestLatencyWindowIsBounded: after 10,000 accepted batches the
// /statz latency sample holds the latest 4,096 latencies and no more,
// and IngestP50/P99 are the quantiles of exactly that window.
func TestIngestLatencyWindowIsBounded(t *testing.T) {
	const accepted = 10000
	recs := testRecords(t)
	s := New(Options{Seed: 3, Workers: 2, QueueDepth: accepted, SourceBudget: accepted, ShedWatermark: 1})
	for i := 0; i < accepted; i++ {
		if got := s.Submit("src", recs[i%len(recs):i%len(recs)+1]); !got.Accepted() {
			t.Fatalf("batch %d: outcome %v", i, got)
		}
	}
	drain(t, s)
	st := s.Stats()
	if st.AcceptedBatches != accepted {
		t.Fatalf("accepted %d batches, want %d", st.AcceptedBatches, accepted)
	}
	window := s.latencies.sample()
	if len(window) != latencySamples {
		t.Fatalf("latency sample holds %d entries after %d batches, want %d", len(window), accepted, latencySamples)
	}
	if p50, p99 := bruteQuantiles(window); st.IngestP50 != p50 || st.IngestP99 != p99 {
		t.Fatalf("IngestP50/P99 = %v/%v, want %v/%v over the window", st.IngestP50, st.IngestP99, p50, p99)
	}

	// The window keeps exactly the last latencySamples values, oldest
	// first, whatever came before them.
	var w Service
	all := make([]float64, accepted)
	rng := rand.New(rand.NewSource(5))
	for i := range all {
		all[i] = rng.Float64()
		w.latencies.add(all[i])
	}
	last := all[accepted-latencySamples:]
	if got := w.latencies.sample(); !reflect.DeepEqual(got, last) {
		t.Fatalf("window holds %d values, want the last %d in order", len(got), latencySamples)
	}
	p50, p99 := w.latencyQuantiles()
	if wantP50, wantP99 := bruteQuantiles(last); p50 != wantP50 || p99 != wantP99 {
		t.Fatalf("quantiles %v/%v, want %v/%v over the last %d", p50, p99, wantP50, wantP99, latencySamples)
	}
}

// bruteQuantiles returns the p50 and p99 of lats by sorting a copy.
func bruteQuantiles(lats []float64) (p50, p99 float64) {
	s := append([]float64(nil), lats...)
	sort.Float64s(s)
	return s[len(s)/2-1+len(s)%2], s[int(0.99*float64(len(s)-1))]
}
