package labdata

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/probe"
	"repro/internal/simnet"
)

func fixtures(t testing.TB) (*simnet.World, *dataset.Dataset, *analysis.Server) {
	t.Helper()
	ds := dataset.Generate(dataset.Config{Seed: 77, Scale: 0.3})
	snis := ds.SNIsByMinUsers(2)
	w := simnet.Build(simnet.Config{Seed: 3, SNIs: snis})
	results, stats := probe.New(probe.WorldProber{World: w}, probe.Options{}).Run(context.Background(), snis, simnet.Vantages())
	srv := analysis.NewServerFromProbes(w, ds, snis, simnet.Vantages(), results, stats)
	return w, ds, srv
}

func TestCaptureShape(t *testing.T) {
	w, ds, _ := fixtures(t)
	lab := Capture(w, ds, 5)
	if lab.Devices == 0 || lab.Devices > 113 {
		t.Fatalf("lab devices %d", lab.Devices)
	}
	if lab.Vendors < 10 {
		t.Errorf("lab vendors %d, want tens (paper: 52)", lab.Vendors)
	}
	if len(lab.Records) == 0 {
		t.Fatal("no lab records")
	}
	for _, r := range lab.Records {
		if r.CapturedAt.Year() < 2017 || r.CapturedAt.Year() > 2021 {
			t.Fatalf("capture time %v outside 2017-2021", r.CapturedAt)
		}
	}
	if len(lab.SNIs()) == 0 {
		t.Fatal("no lab SNIs")
	}
}

func TestCaptureDeterminism(t *testing.T) {
	w, ds, _ := fixtures(t)
	a := Capture(w, ds, 5)
	b := Capture(w, ds, 5)
	if len(a.Records) != len(b.Records) {
		t.Fatal("nondeterministic capture")
	}
	for i := range a.Records {
		if a.Records[i].SNI != b.Records[i].SNI || a.Records[i].IssuerOrg != b.Records[i].IssuerOrg {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestCrossCheckAgreement(t *testing.T) {
	w, ds, srv := fixtures(t)
	lab := Capture(w, ds, 5)
	cc := Compare(lab, srv)
	if cc.CommonSNIs == 0 {
		t.Fatal("no common SNIs between lab and probe")
	}
	// The paper found 356/362 SNIs with the same issuer (98%+ agreement).
	if rate := cc.AgreementRate(); rate < 0.9 {
		t.Errorf("issuer agreement %.2f, want > 0.9", rate)
	}
	if cc.DiffIssuer == 0 {
		t.Error("expected a small divergent tail (the paper's 7 SNIs)")
	}
	if cc.VendorsInBoth == 0 {
		t.Error("no vendors in both datasets")
	}
	// CT deployment grew between epochs.
	if cc.CTGrowth == 0 {
		t.Error("expected CT logging growth between lab epoch and 2022")
	}
}

func TestAgreementRateEmpty(t *testing.T) {
	var cc CrossCheck
	if cc.AgreementRate() != 0 {
		t.Fatal("empty cross-check should have rate 0")
	}
}

func BenchmarkCapture(b *testing.B) {
	w, ds, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Capture(w, ds, 5)
	}
}
