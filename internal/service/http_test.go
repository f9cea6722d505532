package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
)

func postBatch(t *testing.T, url, source string, recs []dataset.Record) *http.Response {
	t.Helper()
	body, err := EncodeBatch(source, recs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestHTTPLifecycle walks the full surface: accept, observe, shed with
// Retry-After, drain, readiness flip.
func TestHTTPLifecycle(t *testing.T) {
	recs := testRecords(t)
	s := New(Options{Seed: 21, Workers: 2, QueueDepth: 4, ShedWatermark: 1.0, SourceBudget: 2})
	srv := httptest.NewServer(Handler(s, HTTPOptions{}))
	defer srv.Close()

	if code, body := getBody(t, srv.URL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := getBody(t, srv.URL+"/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz = %d %q", code, body)
	}

	resp := postBatch(t, srv.URL, "alpha", recs[:20])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("accept POST = %d", resp.StatusCode)
	}
	waitFor(t, "merge", func() bool { return s.Stats().AcceptedBatches == 1 })

	if code, body := getBody(t, srv.URL+"/report"); code != 200 || !strings.Contains(body, "Service Snapshot — epoch 1") {
		t.Fatalf("/report = %d %.80q", code, body)
	}
	if code, body := getBody(t, srv.URL+"/statz"); code != 200 || !strings.Contains(body, `"accepted_batches": 1`) {
		t.Fatalf("/statz = %d %q", code, body)
	}

	// Exhaust one source's budget: the third in-flight batch sheds 429.
	s.PauseWorkers()
	postBatch(t, srv.URL, "beta", recs[:5])
	postBatch(t, srv.URL, "beta", recs[5:10])
	resp = postBatch(t, srv.URL, "beta", recs[10:15])
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget POST = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var shed struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
		t.Fatal(err)
	}
	if shed.Status != OutcomeShedSource.String() {
		t.Fatalf("shed status %q, want %q", shed.Status, OutcomeShedSource)
	}
	s.ResumeWorkers()

	// Malformed submissions are 400, not sheds.
	for _, body := range []string{"{", `{"source":"","records":[{}]}`, `{"source":"x","records":[]}`} {
		resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body %q = %d, want 400", body, resp.StatusCode)
		}
	}

	drain(t, s)
	if code, body := getBody(t, srv.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining /readyz = %d %q", code, body)
	}
	if code, body := getBody(t, srv.URL+"/healthz"); code != 200 || !strings.Contains(body, "draining") {
		t.Fatalf("draining /healthz = %d %q", code, body)
	}
	resp = postBatch(t, srv.URL, "late", recs[:5])
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-drain POST = %d, want 429", resp.StatusCode)
	}
	if !s.Stats().Conserved() {
		t.Fatalf("conservation violated: %+v", s.Stats())
	}
}

// TestHTTPQuarantineLog: a poisoned batch shows up on /quarantinez.
func TestHTTPQuarantineLog(t *testing.T) {
	recs := testRecords(t)
	s := New(Options{Seed: 23, Workers: 1, QueueDepth: 8})
	srv := httptest.NewServer(Handler(s, HTTPOptions{}))
	defer srv.Close()

	resp := postBatch(t, srv.URL, "sick", []dataset.Record{poisoned(recs[0])})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("poison POST = %d (admission cannot see poison)", resp.StatusCode)
	}
	waitFor(t, "quarantine", func() bool { return s.Stats().QuarantinedBatches == 1 })
	code, body := getBody(t, srv.URL+"/quarantinez")
	if code != 200 || !strings.Contains(body, `"sick"`) {
		t.Fatalf("/quarantinez = %d %q", code, body)
	}
	drain(t, s)
}

// TestLoadgenAgainstService: the seeded open-loop generator drives the
// in-process submit path; the report's outcome totals must reconcile
// with the service's own conservation counters. The queue is kept wide
// open so no batch sheds — every poisoned batch must then show up as a
// quarantine, exactly. (Deterministic overload shedding is covered by
// TestOverloadShedDeterministicAndConserved.)
func TestLoadgenAgainstService(t *testing.T) {
	s := New(Options{Seed: 31, Workers: 2, QueueDepth: 256, SourceBudget: 256, BreakerThreshold: 1000})
	rep, err := RunLoad(t.Context(), func(source string, recs []dataset.Record) (Outcome, error) {
		return s.Submit(source, recs), nil
	}, LoadOptions{Seed: 31, Batches: 60, BatchSize: 20, PoisonFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s)
	st := s.Stats()
	if !st.Conserved() {
		t.Fatalf("conservation violated: %+v", st)
	}
	if int64(rep.SubmittedBatches) != st.SubmittedBatches {
		t.Fatalf("loadgen submitted %d, service saw %d", rep.SubmittedBatches, st.SubmittedBatches)
	}
	if rep.Outcomes["accepted"] != st.AcceptedBatches+st.QuarantinedBatches {
		t.Fatalf("admitted mismatch: loadgen %d, service %d+%d",
			rep.Outcomes["accepted"], st.AcceptedBatches, st.QuarantinedBatches)
	}
	if rep.PoisonedBatches == 0 {
		t.Fatal("poison knob inert: seeded run poisoned nothing")
	}
	if st.QuarantinedBatches != int64(rep.PoisonedBatches) {
		t.Fatalf("quarantined %d batches, poisoned %d — with no shedding these must match",
			st.QuarantinedBatches, rep.PoisonedBatches)
	}
	if st.ShedBatches != 0 {
		t.Fatalf("unloaded run shed %d batches", st.ShedBatches)
	}
}

// TestHTTPServerFP: the census endpoint serves the current epoch's
// classifications, caches per epoch, and surfaces counts in /statz.
func TestHTTPServerFP(t *testing.T) {
	recs := testRecords(t)
	s := New(Options{Seed: 33, Workers: 1, QueueDepth: 8})
	srv := httptest.NewServer(Handler(s, HTTPOptions{}))
	defer srv.Close()

	// Epoch 0: empty snapshot, empty census — still a 200.
	code, body := getBody(t, srv.URL+"/v1/serverfp")
	if code != 200 {
		t.Fatalf("/v1/serverfp (epoch 0) = %d %q", code, body)
	}
	var empty ServerFPView
	if err := json.Unmarshal([]byte(body), &empty); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if empty.Epoch != 0 || empty.Targets != 0 {
		t.Fatalf("epoch-0 view = %+v, want empty", empty)
	}

	if resp := postBatch(t, srv.URL, "alpha", recs[:40]); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("accept POST = %d", resp.StatusCode)
	}
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}

	code, body = getBody(t, srv.URL+"/v1/serverfp")
	if code != 200 {
		t.Fatalf("/v1/serverfp = %d %q", code, body)
	}
	var view ServerFPView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if view.Epoch != 1 || view.Targets == 0 || view.BatterySize == 0 {
		t.Fatalf("view = %+v, want epoch 1 with targets", view)
	}
	if view.Accuracy < 0.95 {
		t.Fatalf("census accuracy %.3f, want >= 0.95", view.Accuracy)
	}
	if len(view.Stacks) == 0 || len(view.Vendors) == 0 {
		t.Fatalf("view missing aggregates: %+v", view)
	}

	// Same epoch, second read: served from cache, byte-identical.
	_, again := getBody(t, srv.URL+"/v1/serverfp")
	if again != body {
		t.Fatal("same-epoch serverfp reads differ")
	}
	code, statz := getBody(t, srv.URL+"/statz")
	if code != 200 {
		t.Fatalf("/statz = %d", code)
	}
	var st Stats
	if err := json.Unmarshal([]byte(statz), &st); err != nil {
		t.Fatalf("bad statz JSON: %v", err)
	}
	// Two computations: the epoch-0 empty view and the epoch-1 census.
	if st.ServerFPRuns != 2 || st.ServerFPTargets != int64(view.Targets) {
		t.Fatalf("statz serverfp counts = (%d, %d), want (2, %d)", st.ServerFPRuns, st.ServerFPTargets, view.Targets)
	}
}

// TestPhaseMetricsAndPublications: after a handful of batches posted
// over HTTP, /metrics carries service_phase_seconds for all four
// phases with nonzero counts and a publication counter; after the
// drain, /statz reports 1 <= publications <= accepted_batches.
func TestPhaseMetricsAndPublications(t *testing.T) {
	recs := testRecords(t)
	reg := obs.NewRegistry("")
	s := New(Options{Seed: 23, Workers: 2, QueueDepth: 64, SourceBudget: 64, Metrics: reg})
	srv := httptest.NewServer(Handler(s, HTTPOptions{Metrics: reg}))
	defer srv.Close()

	const n = 6
	for i := 0; i < n; i++ {
		if resp := postBatch(t, srv.URL, "src", recs[i*5:i*5+5]); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d = %d", i, resp.StatusCode)
		}
	}
	waitFor(t, "merges", func() bool { return s.Stats().AcceptedBatches == n })
	code, body := getBody(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	samples, err := obs.ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"decode", "parse", "merge", "publish"} {
		series := `service_phase_seconds_count{phase="` + phase + `"}`
		if samples[series] <= 0 {
			t.Errorf("%s = %v, want > 0", series, samples[series])
		}
	}
	if pubs := samples["service_publications_total"]; pubs < 1 || pubs > n {
		t.Errorf("service_publications_total = %v, want within [1, %d]", pubs, n)
	}

	drain(t, s)
	var st Stats
	_, statz := getBody(t, srv.URL+"/statz")
	if err := json.Unmarshal([]byte(statz), &st); err != nil {
		t.Fatal(err)
	}
	if st.AcceptedBatches != n || st.Publications < 1 || st.Publications > st.AcceptedBatches {
		t.Fatalf("statz: %d accepted batches, %d publications; want %d and 1 <= publications <= accepted",
			st.AcceptedBatches, st.Publications, n)
	}
}

// postBody posts a raw body to /v1/batch and returns the status and the
// response body.
func postBody(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestHTTPRejectsTrailingData: a body carries one batch. A second batch
// or garbage after it is a 400 naming the trailing data, and neither
// batch is submitted, so nothing goes unaccounted. Whitespace after the
// batch, like the newline json.Encoder appends, is allowed.
func TestHTTPRejectsTrailingData(t *testing.T) {
	recs := testRecords(t)
	s := New(Options{Seed: 25, Workers: 1, QueueDepth: 8})
	srv := httptest.NewServer(Handler(s, HTTPOptions{}))
	defer srv.Close()

	first, err := EncodeBatch("a", recs[:1])
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeBatch("b", recs[1:3])
	if err != nil {
		t.Fatal(err)
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, body := range map[string][]byte{
		"second batch": join(first, []byte("\n"), second),
		"garbage":      join(first, []byte("garbage")),
	} {
		code, msg := postBody(t, srv.URL, body)
		if code != http.StatusBadRequest || !strings.Contains(msg, "trailing data after batch") {
			t.Fatalf("%s: POST = %d %q, want 400 naming the trailing data", name, code, msg)
		}
	}
	if st := s.Stats(); st.SubmittedBatches != 0 {
		t.Fatalf("rejected bodies submitted %d batches", st.SubmittedBatches)
	}

	if code, msg := postBody(t, srv.URL, join(first, []byte("\n \t\r\n"))); code != http.StatusAccepted {
		t.Fatalf("batch with trailing whitespace: POST = %d %q, want 202", code, msg)
	}
	drain(t, s)
	if st := s.Stats(); st.AcceptedBatches != 1 || st.AcceptedRecords != 1 || !st.Conserved() {
		t.Fatalf("stats %+v, want one accepted one-record batch", st)
	}
}

// TestFailedDecodeIsTimed: a body that fails to decode still counts in
// service_phase_seconds{phase="decode"}, so malformed load shows in the
// series that times decoding.
func TestFailedDecodeIsTimed(t *testing.T) {
	reg := obs.NewRegistry("")
	s := New(Options{Seed: 27, Workers: 1, QueueDepth: 8, Metrics: reg})
	srv := httptest.NewServer(Handler(s, HTTPOptions{Metrics: reg}))
	defer srv.Close()

	if code, _ := postBody(t, srv.URL, []byte(`{"source":"x","records":[`)); code != http.StatusBadRequest {
		t.Fatalf("malformed POST = %d, want 400", code)
	}
	_, body := getBody(t, srv.URL+"/metrics")
	samples, err := obs.ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if n := samples[`service_phase_seconds_count{phase="decode"}`]; n != 1 {
		t.Fatalf(`service_phase_seconds_count{phase="decode"} = %v, want 1`, n)
	}
	drain(t, s)
}

// BenchmarkDecodeBatch decodes the daemon-ingest workload's POST bodies:
// the seed-20231024 paper-scale population in 25-record batches, as
// EncodeBatch writes them (the fast path) and json.Indent-ed (the
// encoding/json fallback). One op reads and decodes one body.
func BenchmarkDecodeBatch(b *testing.B) {
	rows := dataset.Generate(dataset.Config{Seed: 20231024, Scale: 1}).Records.Rows()
	var canonical, indented [][]byte
	for lo := 0; lo < len(rows); lo += 25 {
		body, err := EncodeBatch(fmt.Sprintf("source-%02d", len(canonical)%4), rows[lo:min(lo+25, len(rows))])
		if err != nil {
			b.Fatal(err)
		}
		var ind bytes.Buffer
		if err := json.Indent(&ind, body, "", "  "); err != nil {
			b.Fatal(err)
		}
		canonical = append(canonical, body)
		indented = append(indented, ind.Bytes())
	}
	for _, form := range []struct {
		name   string
		bodies [][]byte
	}{{"canonical", canonical}, {"indented", indented}} {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := decodeBatch(bytes.NewReader(form.bodies[i%len(form.bodies)])); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
