package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

func runSmall(t testing.TB) *Study {
	t.Helper()
	s, err := Run(context.Background(), Config{Seed: 17, Scale: 0.2, MinSNIUsers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunPipeline(t *testing.T) {
	s := runSmall(t)
	if len(s.Dataset.Devices) == 0 || s.Client.NumFingerprints() == 0 {
		t.Fatal("empty client side")
	}
	if len(s.Server.Records) == 0 {
		t.Fatal("empty server side")
	}
	if len(s.SNIs) == 0 {
		t.Fatal("no SNIs")
	}
}

func TestWriteReportContainsEveryTable(t *testing.T) {
	s := runSmall(t)
	var buf bytes.Buffer
	s.WriteReport(&buf)
	out := buf.String()
	for _, want := range []string{
		"Section 4.1: TLS library matching",
		"Table 2: Fingerprint degree distribution",
		"Figure 2: Degree of TLS fingerprint customization",
		"Table 3: Heterogeneity",
		"Table 4: Vendor tuples",
		"Table 5: Servers linked",
		"Section 4.2: Vulnerabilities",
		"Table 11: Semantics-aware",
		"Figure 8: Jaccard",
		"Table 12: TLS version",
		"Figure 11: Lowest index",
		"Figure 12: Most preferred",
		"Appendix B: extension censuses",
		"Table 6: IoT server certificate dataset",
		"Section 5.1: Certificate sharing",
		"Figure 5: Issuers",
		"Table 7: Certificate chains with validation failure",
		"Table 8: Expired certificates",
		"Table 14: Certificate chains with private issuers",
		"Figure 6: Certificate validity periods",
		"Section 5.4: CT logging",
		"Table 15: Popular SLDs",
		"Table 16: Certificates usage across geographical locations",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestGraphDots(t *testing.T) {
	s := runSmall(t)
	for name, dot := range map[string]string{
		"fig1": s.Figure1Dot(),
		"fig3": s.Figure3Dot(),
		"fig4": s.Figure4Dot(),
	} {
		if !strings.Contains(dot, "graph ") || !strings.Contains(dot, "--") {
			t.Errorf("%s: malformed DOT output", name)
		}
	}
	// Figure 1 labels vendors by Table 13 index, not by name.
	if strings.Contains(s.Figure1Dot(), `label="Amazon"`) {
		t.Error("figure 1 must use vendor indices as labels")
	}
}

func TestRealTLSPath(t *testing.T) {
	if testing.Short() {
		t.Skip("real TLS probing in short mode")
	}
	s, err := Run(context.Background(), Config{Seed: 23, Scale: 0.05, MinSNIUsers: 2, RealTLS: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Server.Records) == 0 {
		t.Fatal("no records via real TLS")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Scale != 1.0 || cfg.MinSNIUsers != 3 {
		t.Fatalf("unexpected defaults %+v", cfg)
	}
	// Run validates instead of silently fixing zero values.
	if _, err := Run(context.Background(), Config{Seed: 5, Scale: 0.05}); err == nil {
		t.Fatal("Run accepted MinSNIUsers = 0")
	}
}

func BenchmarkFullStudySmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Config{Seed: 9, Scale: 0.1, MinSNIUsers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestServerFPStage(t *testing.T) {
	s, err := Run(context.Background(), Config{Seed: 17, Scale: 0.2, MinSNIUsers: 2, ServerFP: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.ServerFP == nil || len(s.ServerFP.Targets) == 0 {
		t.Fatal("ServerFP census missing")
	}
	if acc := s.ServerFP.Accuracy(); acc < 0.95 {
		t.Fatalf("serverfp accuracy %.3f, want >= 0.95", acc)
	}
	var buf bytes.Buffer
	s.WriteReport(&buf)
	for _, want := range []string{
		"Server stack census (active fingerprinting)",
		"Vendor / backend server stack correlation",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}

	// The census is strictly additive: a default run has no census and
	// renders no serverfp tables.
	plain := runSmall(t)
	if plain.ServerFP != nil {
		t.Fatal("default config ran the serverfp stage")
	}
	var pbuf bytes.Buffer
	plain.WriteReport(&pbuf)
	if strings.Contains(pbuf.String(), "Server stack census") {
		t.Fatal("default report contains serverfp tables")
	}
}

// TestTimelineTablesNeedGeneratedDataset: the adoption tables replay the
// generator's upgrade schedule from the dataset's seed and device
// stacks. A dataset rebuilt from records carries neither, so an AsOf
// study over one (the daemon's final report) omits both tables rather
// than render the schedule at seed 0 with every device counted legacy.
func TestTimelineTablesNeedGeneratedDataset(t *testing.T) {
	asof := time.Date(2025, 8, 1, 0, 0, 0, 0, time.UTC)
	rows := dataset.Generate(dataset.Config{Seed: 17, Scale: 0.2, AsOf: asof}).Records.Rows()
	titles := []string{
		"TLS 1.3 adoption timeline (firmware drift)",
		"Downgrade stragglers by vendor (never upgrade)",
	}
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
		want bool
	}{
		{"generated", nil, true},
		{"from-records", dataset.FromRecords(rows), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Run(context.Background(), Config{Seed: 17, Scale: 0.2, MinSNIUsers: 2, AsOf: asof, Dataset: tc.ds})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			s.WriteReport(&buf)
			for _, title := range titles {
				if got := strings.Contains(buf.String(), title); got != tc.want {
					t.Errorf("report has %q: %v, want %v", title, got, tc.want)
				}
			}
		})
	}
}
