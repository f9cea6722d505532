package service

import (
	"bytes"
	"context"
	"errors"
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
	"repro/internal/obs"
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
	if !reflect.DeepEqual(snap.Client.Devices(), batch.Devices()) {
		t.Fatal("device sets diverge")
	}
	for _, key := range batch.FingerprintKeys() {
		if !reflect.DeepEqual(snap.Client.Fingerprint(key).Devices, batch.Fingerprint(key).Devices) {
			t.Fatalf("fingerprint %s: devices diverge", key)
		}
	}

	var got, want bytes.Buffer
	snap.WriteReport(&got, s.matcher(), 2)
	alt := &Snapshot{Epoch: snap.Epoch, Records: snap.Records, At: snap.At, Client: batch}
	alt.WriteReport(&want, s.matcher(), 5)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("snapshot report bytes diverge from batch render (%d vs %d bytes)", got.Len(), want.Len())
	}
}

// TestFinalReportIgnoresStackLabels: a fingerprint is its hello's
// content, so the drained daemon's final report over relabelled records
// is byte-identical to the one over the records as generated, at seeds 1
// and 20231024, under one label on every record, a unique label per
// record, and the records' own labels shuffled among them.
func TestFinalReportIgnoresStackLabels(t *testing.T) {
	report := func(seed int64, recs []dataset.Record) []byte {
		t.Helper()
		s := New(Options{Seed: seed, Workers: 2, QueueDepth: 4096, SourceBudget: 4096})
		for i, b := range batches(recs, 25) {
			if got := s.Submit(fmt.Sprintf("src-%d", i%3), b); !got.Accepted() {
				t.Fatalf("batch %d: outcome %v", i, got)
			}
		}
		drain(t, s)
		cfg := core.DefaultConfig()
		cfg.Seed, cfg.Scale, cfg.Workers = seed, 0.05, 2
		var buf bytes.Buffer
		if err := s.FinalReport(context.Background(), &buf, cfg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, seed := range []int64{1, 20231024} {
		recs := dataset.Generate(dataset.Config{Seed: seed, Scale: 0.05}).Records.Rows()
		want := report(seed, recs)
		perm := rand.New(rand.NewSource(seed)).Perm(len(recs))
		for _, rl := range []struct {
			name  string
			label func(i int) string
		}{
			{"one", func(int) string { return "one-label" }},
			{"unique", func(i int) string { return fmt.Sprintf("label-%d", i) }},
			{"shuffled", func(i int) string { return recs[perm[i]].StackID }},
		} {
			rs := append([]dataset.Record(nil), recs...)
			for i := range rs {
				rs[i].StackID = rl.label(i)
			}
			if got := report(seed, rs); !bytes.Equal(got, want) {
				t.Fatalf("seed %d, %s labels: final report differs from the unrelabelled records' (%d vs %d bytes)",
					seed, rl.name, len(got), len(want))
			}
		}
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
// defined once a drain has finished. BeginDrain stops admission before
// the merger has published its last group, so with one accepted batch
// still held in a slow worker, FinalReport must refuse rather than
// report over a log that lacks the batch (and that the merger is about
// to append to); after AwaitDrain the log holds the batch and the
// report runs.
func TestFinalReportRequiresDrain(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Scale = 0.05
	s := New(Options{Seed: 9, Workers: 1})
	var buf bytes.Buffer
	if err := s.FinalReport(context.Background(), &buf, cfg); !errors.Is(err, ErrNotDrained) {
		t.Fatalf("FinalReport before drain: err %v, want ErrNotDrained", err)
	}
	drain(t, s)

	recs := testRecords(t)[:25]
	s = New(Options{Seed: 9, Workers: 1, ChaosSlow: 300 * time.Millisecond})
	if o := s.Submit("src", recs); !o.Accepted() {
		t.Fatalf("submit: outcome %v", o)
	}
	s.BeginDrain()
	buf.Reset()
	if err := s.FinalReport(context.Background(), &buf, cfg); !errors.Is(err, ErrNotDrained) {
		t.Fatalf("FinalReport before the drain flushed: err %v, want ErrNotDrained (a %d-byte report over %d records)",
			err, buf.Len(), len(s.AcceptedRecords()))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.AwaitDrain(ctx); err != nil {
		t.Fatal(err)
	}
	if n := len(s.AcceptedRecords()); n != len(recs) {
		t.Fatalf("drained log holds %d records, want %d", n, len(recs))
	}
	if err := s.FinalReport(context.Background(), &buf, cfg); err != nil {
		t.Fatalf("FinalReport after the drain: %v", err)
	}
}

// TestDeviceIdentityIgnoresBatchOrder posts two one-record batches for
// one device, vendor "Insignia" at t and "Other Vendor" at t+gap, in
// both orders, with the times differing and with them equal. A device
// takes its identity from its earliest record, ties broken by vendor,
// so the drained snapshot names it "Insignia" in both orders, as the
// canonical dataset behind FinalReport does, and both orders give the
// same snapshot and final reports.
func TestDeviceIdentityIgnoresBatchOrder(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Scale = 0.05
	a := testRecords(t)[0]
	a.Vendor = "Insignia"
	for _, gap := range []time.Duration{time.Hour, 0} {
		b := a
		b.Vendor, b.Type = "Other Vendor", "other-type"
		b.Time = a.Time.Add(gap)
		var snapReports, finalReports [2][]byte
		for k, order := range [][]dataset.Record{{a, b}, {b, a}} {
			s := New(Options{Seed: 31, Workers: 1})
			for _, r := range order {
				if o := s.Submit("src", []dataset.Record{r}); !o.Accepted() {
					t.Fatalf("submit: outcome %v", o)
				}
			}
			drain(t, s)
			snap := s.Snapshot()
			canon := dataset.Canonical(s.accepted.Records())
			if len(canon.Devices) != 1 || canon.Devices[0].Vendor != "Insignia" {
				t.Fatalf("gap %v, %s first: the canonical dataset's devices are %+v", gap, order[0].Vendor, canon.Devices)
			}
			if got := snap.Client.DeviceVendor(a.DeviceID); got != "Insignia" || snap.Client.DeviceType(a.DeviceID) != canon.Devices[0].Type {
				t.Fatalf("gap %v, %s first: the snapshot names the device %s/%s, FinalReport's dataset %s/%s", gap, order[0].Vendor,
					got, snap.Client.DeviceType(a.DeviceID), canon.Devices[0].Vendor, canon.Devices[0].Type)
			}
			var sr, fr bytes.Buffer
			snap.WriteReport(&sr, s.matcher(), 1)
			if err := s.FinalReport(context.Background(), &fr, cfg); err != nil {
				t.Fatal(err)
			}
			snapReports[k], finalReports[k] = sr.Bytes(), fr.Bytes()
		}
		if !bytes.Equal(snapReports[0], snapReports[1]) || !bytes.Equal(finalReports[0], finalReports[1]) {
			t.Fatalf("gap %v: the reports depend on batch order", gap)
		}
	}
}

// TestKeptStateGauges: at each publication the daemon exports what it
// keeps for its whole life. After a run with quarantined batches the
// record gauge equals the accepted count, and the log gauge lies between
// the accepted wire bytes and twice their sum plus 40 bytes a record.
// Quarantined batches whose valid records carry strings and prints the
// daemon has not seen move neither ingest gauge: a later publication of
// a re-sent batch reads the same strings and prints as before them.
func TestKeptStateGauges(t *testing.T) {
	recs := testRecords(t)
	reg := obs.NewRegistry("")
	s := New(Options{Seed: 29, Workers: 2, QueueDepth: 256, SourceBudget: 256, ShedWatermark: 1, Metrics: reg})
	gauge := func(name string) int64 { return reg.Gauge(name).Value() }
	bs := batches(recs, 20)
	half := len(bs) / 2
	submitAll := func(source string, bs [][]dataset.Record) {
		t.Helper()
		for i, b := range bs {
			if o := s.Submit(source, b); !o.Accepted() {
				t.Fatalf("%s batch %d: outcome %v", source, i, o)
			}
		}
	}
	submitAll("src", bs[:half])
	waitFor(t, "first half", func() bool { return s.Stats().AcceptedBatches == int64(half) })
	strs, prints := gauge("service_ingest_strings"), gauge("service_ingest_prints")
	if strs <= 1 || prints <= 0 {
		t.Fatalf("ingest gauges read %d strings and %d prints after %d batches", strs, prints, half)
	}
	const rejected = 3
	for i := 0; i < rejected; i++ {
		bad := append([]dataset.Record(nil), bs[half+i]...)
		r := poisoned(bad[0])
		r.DeviceID, r.SNI = fmt.Sprintf("rejected-device-%d", i), fmt.Sprintf("rejected-%d.example", i)
		submitAll(fmt.Sprintf("bad-%d", i), [][]dataset.Record{append(bad, r)})
	}
	waitFor(t, "quarantines", func() bool { return s.Stats().QuarantinedBatches == rejected })
	submitAll("src", bs[:1])
	waitFor(t, "re-sent batch", func() bool { return s.Stats().AcceptedBatches == int64(half+1) })
	if gs, gp := gauge("service_ingest_strings"), gauge("service_ingest_prints"); gs != strs || gp != prints {
		t.Fatalf("quarantined batches moved the ingest gauges: strings %d -> %d, prints %d -> %d", strs, gs, prints, gp)
	}
	submitAll("src", bs[half:])
	drain(t, s)

	st := s.Stats()
	if st.QuarantinedBatches != rejected || !st.Conserved() {
		t.Fatalf("want %d quarantined batches and conservation: %+v", rejected, st)
	}
	if got := gauge("service_accepted_records"); got != st.AcceptedRecords {
		t.Fatalf("service_accepted_records = %d, Stats.AcceptedRecords = %d", got, st.AcceptedRecords)
	}
	wire := int64(0)
	for _, r := range s.AcceptedRecords() {
		wire += int64(len(r.Raw))
	}
	lo, hi := wire, 2*(wire+40*st.AcceptedRecords)
	if got := gauge("service_accepted_log_bytes"); got < lo || got > hi {
		t.Fatalf("service_accepted_log_bytes = %d, want within [%d, %d] for %d records", got, lo, hi, st.AcceptedRecords)
	}
	if gs, gp := gauge("service_ingest_strings"), gauge("service_ingest_prints"); gs <= strs || gp < prints {
		t.Fatalf("ingest gauges after the second half: strings %d -> %d, prints %d -> %d", strs, gs, prints, gp)
	}
}

// TestSourcesGauge: service_sources reads the size of the per-source
// table. After posts from N sources it reads N, and repeat posts from
// known sources do not move it; neither does a post shed while
// draining, which is refused before it reaches the table.
func TestSourcesGauge(t *testing.T) {
	recs := testRecords(t)
	reg := obs.NewRegistry("")
	s := New(Options{Seed: 29, Workers: 2, QueueDepth: 256, SourceBudget: 256, ShedWatermark: 1, Metrics: reg})
	gauge := func() int64 { return reg.Gauge("service_sources").Value() }
	if got := gauge(); got != 0 {
		t.Fatalf("service_sources = %d before any post", got)
	}
	const n = 5
	bs := batches(recs, 10)
	if len(bs) < 2*n {
		t.Fatalf("need %d batches, have %d", 2*n, len(bs))
	}
	for i := 0; i < n; i++ {
		if o := s.Submit(fmt.Sprintf("src-%d", i), bs[i]); !o.Accepted() {
			t.Fatalf("src-%d: outcome %v", i, o)
		}
		if got := gauge(); got != int64(i+1) {
			t.Fatalf("after %d sources service_sources = %d", i+1, got)
		}
	}
	for i := 0; i < n; i++ {
		if o := s.Submit(fmt.Sprintf("src-%d", i), bs[n+i]); !o.Accepted() {
			t.Fatalf("src-%d repeat: outcome %v", i, o)
		}
	}
	if got := gauge(); got != n {
		t.Fatalf("repeat posts moved service_sources to %d, want %d", got, n)
	}
	s.BeginDrain()
	if o := s.Submit("late", bs[0]); o.Accepted() {
		t.Fatalf("a post after BeginDrain was accepted: %v", o)
	}
	if got := gauge(); got != n {
		t.Fatalf("a post shed while draining moved service_sources to %d, want %d", got, n)
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
