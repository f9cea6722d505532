package core

import (
	"bytes"
	"context"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/pki"
	"repro/internal/probe"
)

// TestStageGraphSplitsValidateFromIngest pins the pipeline edges the
// visitor join relies on: chain-validate waits for the probe sweep
// alone, and only the join meets the client branch.
func TestStageGraphSplitsValidateFromIngest(t *testing.T) {
	after := map[string][]string{}
	for _, s := range Stages() {
		after[s.Name] = s.After
	}
	if got := after[StageValidate]; !slices.Equal(got, []string{StageProbe}) {
		t.Errorf("%s after %v, want exactly [%s]", StageValidate, got, StageProbe)
	}
	join, ok := after[StageJoin]
	if !ok {
		t.Fatalf("no %s stage in %v", StageJoin, Stages())
	}
	for _, dep := range []string{StageValidate, StageIngest} {
		if !slices.Contains(join, dep) {
			t.Errorf("%s after %v, missing %s", StageJoin, join, dep)
		}
	}
}

// TestVisitorJoinMatchesRecordScan: the join stage attaches to every
// certificate record exactly the devices and vendors that
// NewServerFromProbes finds by scanning the ClientHello records, on
// generated, drifted, and FromRecords (daemon FinalReport) datasets.
func TestVisitorJoinMatchesRecordScan(t *testing.T) {
	rows := dataset.Generate(dataset.Config{Seed: 1, Scale: 0.3}).Records.Rows()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"seed=1", Config{Seed: 1, Scale: 0.3}},
		{"seed=20231024", Config{Seed: 20231024, Scale: 0.3}},
		{"seed=20231024/asof=2025-08-01", Config{Seed: 20231024, Scale: 0.3, AsOf: time.Date(2025, 8, 1, 0, 0, 0, 0, time.UTC)}},
		{"from-records", Config{Seed: 1, Scale: 0.3, Dataset: dataset.FromRecords(rows)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MinSNIUsers = 3
			st, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The world and the probe engine are deterministic, so a
			// second sweep returns the results the study validated.
			results, stats := probe.New(probe.WorldProber{World: st.World}, probe.Options{}).
				Run(context.Background(), st.SNIs, cfg.vantages())
			want := analysis.NewServerFromProbes(st.World, st.Dataset, st.SNIs, cfg.vantages(), results, stats)
			got := st.Server
			if len(got.Records) != len(want.Records) {
				t.Fatalf("%d records, record scan gives %d", len(got.Records), len(want.Records))
			}
			visited := 0
			for i, g := range got.Records {
				w := want.Records[i]
				if g.SNI != w.SNI || g.Status != w.Status {
					t.Fatalf("record %d: %s/%v, record scan gives %s/%v", i, g.SNI, g.Status, w.SNI, w.Status)
				}
				if !maps.Equal(g.Devices, w.Devices) {
					t.Errorf("%s: %d devices, record scan gives %d", g.SNI, len(g.Devices), len(w.Devices))
				}
				if !maps.Equal(g.Vendors, w.Vendors) {
					t.Errorf("%s: vendors %v, record scan gives %v", g.SNI, g.Vendors, w.Vendors)
				}
				if len(g.Devices) > 0 {
					visited++
				}
			}
			if visited == 0 {
				t.Fatal("no record has a visiting device; the comparison is vacuous")
			}
		})
	}
}

// TestTrustCacheCountersIndependentOfWorkers: chain-validate spreads the
// records across the worker pool, and the validator's in-flight cache
// entry makes a second caller for a chain wait rather than verify it
// again. So every distinct chain that reaches the trust check costs
// exactly one miss, and the pki counters are identical for any worker
// count. Run it under -race with a high -count: without the in-flight
// entry, two workers verifying one chain at once count two misses.
func TestTrustCacheCountersIndependentOfWorkers(t *testing.T) {
	var want map[string]float64
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		m := obs.NewRegistry("test")
		st, err := Run(context.Background(), Config{Seed: 31, Scale: 0.2, MinSNIUsers: 2, Workers: workers, Metrics: m})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := m.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := obs.ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		// Trust-cache hits and misses plus pki_verdicts_total per status.
		got := map[string]float64{}
		for series, v := range samples {
			if strings.HasPrefix(series, "test_pki_") {
				got[series] = v
			}
		}
		if want != nil {
			if !maps.Equal(got, want) {
				t.Errorf("workers=%d: pki counters %v, workers=1 gives %v", workers, got, want)
			}
			continue
		}
		want = got
		// Expired and CN-mismatched chains are decided before the trust
		// cache; every other record's chain is looked up in it.
		distinct := map[string]bool{}
		for _, r := range st.Server.Records {
			if r.Status == pki.StatusExpired || r.Status == pki.StatusCNMismatch {
				continue
			}
			var key []byte
			for _, c := range r.Chain.Certs {
				key = append(key, c.Raw...)
			}
			distinct[string(key)] = true
		}
		if misses := got["test_pki_trust_cache_misses_total"]; misses != float64(len(distinct)) {
			t.Errorf("%v trust-cache misses, want one per distinct chain: %d", misses, len(distinct))
		}
		if got["test_pki_trust_cache_hits_total"] == 0 {
			t.Fatal("no trust-cache hits: no chain is shared, so concurrent verification is not exercised")
		}
	}
}
