package export

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/probe"
	"repro/internal/simnet"
)

func TestAnonymizerStableAndKeyed(t *testing.T) {
	a := NewAnonymizer("secret-1")
	if a.Token("device", "dev-00001") != a.Token("device", "dev-00001") {
		t.Fatal("token not stable")
	}
	if a.Token("device", "dev-00001") == a.Token("device", "dev-00002") {
		t.Fatal("distinct ids collide")
	}
	if a.Token("device", "dev-00001") == a.Token("user", "dev-00001") {
		t.Fatal("kinds must domain-separate")
	}
	b := NewAnonymizer("secret-2")
	if a.Token("device", "dev-00001") == b.Token("device", "dev-00001") {
		t.Fatal("different keys must produce different tokens")
	}
	if len(a.Token("device", "x")) != 24 {
		t.Fatal("token length")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: 21, Scale: 0.05})
	anon := NewAnonymizer("k")
	var buf bytes.Buffer
	n, err := WriteHellos(&buf, ds, anon)
	if err != nil {
		t.Fatal(err)
	}
	if n != ds.Records.Len() {
		t.Fatalf("wrote %d rows, want %d", n, ds.Records.Len())
	}
	rows, err := ReadHellos(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("read %d rows", len(rows))
	}
	// No raw identifiers leak.
	for _, r := range rows {
		if strings.HasPrefix(r.Device, "dev-") || strings.HasPrefix(r.User, "user-") {
			t.Fatalf("raw identifier leaked: %s/%s", r.Device, r.User)
		}
		if !strings.HasSuffix(r.Hour, ":00:00Z") {
			t.Fatalf("time not truncated to hour: %s", r.Hour)
		}
	}
}

func TestExportedStatsMatchOriginal(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: 22, Scale: 0.1})
	var buf bytes.Buffer
	if _, err := WriteHellos(&buf, ds, NewAnonymizer("k")); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadHellos(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st := Stats(rows)
	// The anonymized release must reproduce the aggregates.
	client, err := analysis.NewClientWorkers(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.UniqueFingerprints != client.NumFingerprints() {
		t.Errorf("fingerprints %d vs %d", st.UniqueFingerprints, client.NumFingerprints())
	}
	deg := client.Table2()
	if diff := st.SingleVendorShare - deg.Deg1; diff > 0.001 || diff < -0.001 {
		t.Errorf("single-vendor share %.4f vs %.4f", st.SingleVendorShare, deg.Deg1)
	}
	if st.Users != ds.Users() {
		t.Errorf("users %d vs %d", st.Users, ds.Users())
	}
	devices := map[string]bool{}
	for _, r := range ds.Records.Rows() {
		devices[r.DeviceID] = true
	}
	if st.Devices != len(devices) {
		t.Errorf("devices %d vs %d (with records)", st.Devices, len(devices))
	}
}

func TestCertRoundTrip(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: 23, Scale: 0.1})
	snis := ds.SNIsByMinUsers(2)
	w := simnet.Build(simnet.Config{Seed: 24, SNIs: snis})
	results, stats := probe.New(probe.WorldProber{World: w}, probe.Options{}).Run(context.Background(), snis, simnet.Vantages())
	srv := analysis.NewServerFromProbes(w, ds, snis, simnet.Vantages(), results, stats)

	var buf bytes.Buffer
	n, err := WriteCerts(&buf, srv)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(srv.Records) {
		t.Fatalf("wrote %d want %d", n, len(srv.Records))
	}
	rows, err := ReadCerts(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("read %d", len(rows))
	}
	for i, r := range rows {
		orig := srv.Records[i]
		if r.SNI != orig.SNI || r.IssuerOrg != orig.IssuerOrg || r.ValidityDays != orig.ValidityDays {
			t.Fatalf("row %d mismatch", i)
		}
		if len(r.LeafFingerprint) != 64 {
			t.Fatalf("leaf fingerprint %q", r.LeafFingerprint)
		}
		if r.Status == "" {
			t.Fatal("empty status")
		}
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := ReadHellos(strings.NewReader("{not json")); err == nil {
		t.Fatal("malformed hello row accepted")
	}
	if _, err := ReadCerts(strings.NewReader("[1,2,3")); err == nil {
		t.Fatal("malformed cert row accepted")
	}
	rows, err := ReadHellos(strings.NewReader(""))
	if err != nil || len(rows) != 0 {
		t.Fatal("empty input should yield no rows")
	}
}

func BenchmarkWriteHellos(b *testing.B) {
	ds := dataset.Generate(dataset.Config{Seed: 25, Scale: 0.1})
	anon := NewAnonymizer("k")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := WriteHellos(&buf, ds, anon); err != nil {
			b.Fatal(err)
		}
	}
}
