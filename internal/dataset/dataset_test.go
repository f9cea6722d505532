package dataset

import (
	"fmt"
	"testing"

	"repro/internal/ciphersuite"
	"repro/internal/fingerprint"
	"repro/internal/libcorpus"
	"repro/internal/tlswire"
)

// genOnce caches the paper-scale dataset across tests in this package.
var cached *Dataset

func paperScale(t testing.TB) *Dataset {
	t.Helper()
	if cached == nil {
		cached = Generate(Config{Seed: 20231024, Scale: 1})
	}
	return cached
}

func TestPopulationScale(t *testing.T) {
	ds := paperScale(t)
	if n := len(ds.Devices); n < 1800 || n > 2400 {
		t.Errorf("devices %d, want ~2000", n)
	}
	if n := ds.Users(); n < 400 || n > 800 {
		t.Errorf("users %d, want ~721", n)
	}
	if n := ds.Models(); n < 150 || n > 400 {
		t.Errorf("models %d, want ~286", n)
	}
	if n := ds.Records.Len(); n < 8000 || n > 20000 {
		t.Errorf("records %d, want ~11k", n)
	}
	vendors := map[string]bool{}
	for _, d := range ds.Devices {
		vendors[d.Vendor] = true
	}
	if len(vendors) != 65 {
		t.Errorf("vendors %d want 65", len(vendors))
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Config{Seed: 7, Scale: 0.05})
	b := Generate(Config{Seed: 7, Scale: 0.05})
	if a.Records.Len() != b.Records.Len() {
		t.Fatalf("record counts differ: %d vs %d", a.Records.Len(), b.Records.Len())
	}
	for i := 0; i < a.Records.Len(); i++ {
		if a.Records.At(i).SNI != b.Records.At(i).SNI || a.Records.At(i).DeviceID != b.Records.At(i).DeviceID {
			t.Fatalf("record %d differs", i)
		}
		if string(a.Records.At(i).Raw) != string(b.Records.At(i).Raw) {
			t.Fatalf("raw bytes differ at %d", i)
		}
	}
	c := Generate(Config{Seed: 8, Scale: 0.05})
	if a.Records.Len() == c.Records.Len() {
		same := true
		for i := 0; i < a.Records.Len(); i++ {
			if a.Records.At(i).SNI != c.Records.At(i).SNI {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical datasets")
		}
	}
}

func TestRecordsParseAndMatchFingerprints(t *testing.T) {
	ds := Generate(Config{Seed: 3, Scale: 0.1})
	for i, r := range ds.Records.Rows() {
		ch, err := r.Hello()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if r.SNI != "" && ch.SNI() != r.SNI {
			t.Fatalf("record %d: SNI %q != %q", i, ch.SNI(), r.SNI)
		}
		if len(ch.CipherSuites) == 0 {
			t.Fatalf("record %d: empty suites", i)
		}
	}
}

func TestFingerprintDiversity(t *testing.T) {
	ds := paperScale(t)
	prints := map[string]bool{}
	for _, r := range ds.Records.Rows() {
		ch, err := r.Hello()
		if err != nil {
			t.Fatal(err)
		}
		prints[fingerprint.FromClientHello(ch).Key()] = true
	}
	// The paper extracted 903 unique fingerprints; target the same order.
	if n := len(prints); n < 400 || n > 1600 {
		t.Errorf("unique fingerprints %d, want hundreds (paper: 903)", n)
	}
}

func TestNoTLS13Proposals(t *testing.T) {
	ds := Generate(Config{Seed: 5, Scale: 0.15})
	for _, r := range ds.Records.Rows() {
		ch, err := r.Hello()
		if err != nil {
			t.Fatal(err)
		}
		if ch.EffectiveVersion() == tlswire.VersionTLS13 {
			t.Fatalf("TLS 1.3 proposed by %s (stack %s); paper observed none", r.DeviceID, r.StackID)
		}
	}
}

func TestSSL3Stragglers(t *testing.T) {
	ds := paperScale(t)
	devices := map[string]bool{}
	vendors := map[string]bool{}
	for _, r := range ds.Records.Rows() {
		ch, err := r.Hello()
		if err != nil {
			t.Fatal(err)
		}
		if ch.LegacyVersion == tlswire.VersionSSL30 {
			devices[r.DeviceID] = true
			vendors[r.Vendor] = true
		}
	}
	if len(devices) < 10 || len(devices) > 60 {
		t.Errorf("SSL3 devices %d, want ~26", len(devices))
	}
	for _, v := range []string{"Amazon", "Synology"} {
		if !vendors[v] {
			t.Errorf("vendor %s should have SSL3 stragglers", v)
		}
	}
}

func TestGREASEPopulation(t *testing.T) {
	ds := paperScale(t)
	devices := map[string]bool{}
	for _, r := range ds.Records.Rows() {
		ch, err := r.Hello()
		if err != nil {
			t.Fatal(err)
		}
		f := fingerprint.FromClientHello(ch)
		if f.HasGREASESuites() {
			devices[r.DeviceID] = true
		}
	}
	// Paper: 501 devices use GREASE in suites.
	if n := len(devices); n < 200 || n > 900 {
		t.Errorf("GREASE devices %d, want hundreds (paper: 501)", n)
	}
}

func TestSDKServerTied(t *testing.T) {
	ds := paperScale(t)
	// SDK-owned SNIs must only ever be visited with the SDK's fingerprint.
	sdkSNIs := map[string]string{} // sni -> sdk stack key
	for name, stack := range ds.SDKStacks {
		for _, sni := range stack.SNIs {
			sdkSNIs[sni] = name
		}
	}
	type visit struct {
		vendors map[string]bool
		prints  map[string]bool
	}
	visits := map[string]*visit{}
	for _, r := range ds.Records.Rows() {
		sdk, ok := sdkSNIs[r.SNI]
		if !ok {
			continue
		}
		ch, err := r.Hello()
		if err != nil {
			t.Fatal(err)
		}
		v := visits[sdk]
		if v == nil {
			v = &visit{vendors: map[string]bool{}, prints: map[string]bool{}}
			visits[sdk] = v
		}
		v.vendors[r.Vendor] = true
		v.prints[fingerprint.FromClientHello(ch).Key()] = true
	}
	multiVendor := 0
	for sdk, v := range visits {
		if len(v.prints) != 1 {
			t.Errorf("sdk %s: %d distinct fingerprints, want 1 (server-tied)", sdk, len(v.prints))
		}
		if len(v.vendors) >= 2 {
			multiVendor++
		}
	}
	if multiVendor < 4 {
		t.Errorf("only %d SDKs visited by 2+ vendors; want several (Table 5)", multiVendor)
	}
}

func TestVulnerableShare(t *testing.T) {
	ds := paperScale(t)
	prints := map[string]fingerprint.Fingerprint{}
	for _, r := range ds.Records.Rows() {
		ch, err := r.Hello()
		if err != nil {
			t.Fatal(err)
		}
		f := fingerprint.FromClientHello(ch)
		prints[f.Key()] = f
	}
	vuln, threeDES := 0, 0
	for _, f := range prints {
		classes := f.VulnClasses()
		if len(classes) > 0 {
			vuln++
		}
		for _, c := range classes {
			if c == ciphersuite.Vuln3DES {
				threeDES++
				break
			}
		}
	}
	total := len(prints)
	vr := float64(vuln) / float64(total)
	// Paper: 44.63% vulnerable, 41.64% with 3DES.
	if vr < 0.25 || vr > 0.75 {
		t.Errorf("vulnerable fingerprint share %.2f, want ~0.45", vr)
	}
	tr := float64(threeDES) / float64(total)
	if tr < 0.20 || tr > 0.70 {
		t.Errorf("3DES share %.2f, want ~0.42", tr)
	}
}

func TestExactLibraryMatches(t *testing.T) {
	ds := paperScale(t)
	matcher := libcorpus.NewMatcher()
	prints := map[string]fingerprint.Fingerprint{}
	for _, r := range ds.Records.Rows() {
		ch, err := r.Hello()
		if err != nil {
			t.Fatal(err)
		}
		f := fingerprint.FromClientHello(ch)
		prints[f.Key()] = f
	}
	matched := 0
	for _, f := range prints {
		if _, ok := matcher.MatchExact(f); ok {
			matched++
		}
	}
	rate := float64(matched) / float64(len(prints))
	// Paper: 2.55% of 903 fingerprints (23) matched.
	if matched < 5 {
		t.Errorf("only %d matched fingerprints; want >= 5", matched)
	}
	if rate > 0.15 {
		t.Errorf("match rate %.3f too high; the population should be ~98%% customized", rate)
	}
}

func TestBelkinRC4First(t *testing.T) {
	ds := paperScale(t)
	seen := false
	for _, r := range ds.Records.Rows() {
		if r.Vendor != "Belkin" {
			continue
		}
		seen = true
		ch, err := r.Hello()
		if err != nil {
			t.Fatal(err)
		}
		if ch.LegacyVersion == tlswire.VersionSSL30 {
			continue
		}
		s, _ := ciphersuite.Lookup(ch.CipherSuites[0])
		if s.VulnClass() != ciphersuite.VulnRC4 {
			t.Fatalf("Belkin record proposes %s first, want RC4", s.Name)
		}
	}
	if !seen {
		t.Fatal("no Belkin records")
	}
}

func TestSynologyAwful(t *testing.T) {
	ds := paperScale(t)
	found := false
	for _, r := range ds.Records.Rows() {
		if r.Vendor != "Synology" {
			continue
		}
		ch, err := r.Hello()
		if err != nil {
			t.Fatal(err)
		}
		f := fingerprint.FromClientHello(ch)
		for _, c := range f.VulnClasses() {
			if c == ciphersuite.VulnKRB5Export || c == ciphersuite.VulnAnonKex {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("Synology should propose anon/KRB5_EXPORT suites")
	}
}

func TestSNIFilter(t *testing.T) {
	ds := paperScale(t)
	all := ds.SNIs()
	filtered := ds.SNIsByMinUsers(3)
	if len(filtered) >= len(all) {
		t.Fatalf("filter removed nothing: %d vs %d", len(filtered), len(all))
	}
	if len(filtered) < 200 {
		t.Fatalf("only %d SNIs survive the 3-user filter; want hundreds (paper: 1151)", len(filtered))
	}
	// Filtered set must be a subset.
	set := map[string]bool{}
	for _, s := range all {
		set[s] = true
	}
	for _, s := range filtered {
		if !set[s] {
			t.Fatalf("filtered SNI %q not in full set", s)
		}
	}
}

func TestFQDNsOf(t *testing.T) {
	fqdns := FQDNsOf(SLDSpec{Name: "example.com", FQDNs: 70})
	if len(fqdns) != 70 {
		t.Fatalf("got %d", len(fqdns))
	}
	seen := map[string]bool{}
	for _, f := range fqdns {
		if seen[f] {
			t.Fatalf("duplicate FQDN %s", f)
		}
		seen[f] = true
	}
	if fqdns[0] != "api.example.com" {
		t.Fatalf("first fqdn %s", fqdns[0])
	}
}

func TestVendorRegistry(t *testing.T) {
	vendors := Vendors()
	if len(vendors) != 65 {
		t.Fatalf("vendor count %d", len(vendors))
	}
	seenIdx := map[int]bool{}
	seenName := map[string]bool{}
	for _, v := range vendors {
		if v.Index < 1 || v.Index > 65 || seenIdx[v.Index] {
			t.Errorf("bad/duplicate index %d (%s)", v.Index, v.Name)
		}
		seenIdx[v.Index] = true
		if seenName[v.Name] {
			t.Errorf("duplicate vendor %s", v.Name)
		}
		seenName[v.Name] = true
		if v.Weight <= 0 || len(v.Types) == 0 || len(v.SLDs) == 0 {
			t.Errorf("vendor %s incomplete", v.Name)
		}
		if v.OnlyPrivateCA && !v.PrivateCA {
			t.Errorf("vendor %s OnlyPrivateCA without PrivateCA", v.Name)
		}
	}
	if w := TotalWeight(); w < 1900 || w > 2300 {
		t.Errorf("total weight %d, want ~2014", w)
	}
	// The paper's 16 private-CA vendors and 3 exclusive ones.
	private, only := 0, 0
	for _, v := range vendors {
		if v.PrivateCA {
			private++
		}
		if v.OnlyPrivateCA {
			only++
		}
	}
	if private < 14 || private > 18 {
		t.Errorf("private CA vendors %d, want 16", private)
	}
	if only != 3 {
		t.Errorf("exclusive private CA vendors %d, want 3 (Canary, Tuya, Obihai)", only)
	}
}

func TestScaleDown(t *testing.T) {
	ds := Generate(Config{Seed: 11, Scale: 0.05})
	if len(ds.Devices) < 60 || len(ds.Devices) > 200 {
		t.Fatalf("scaled devices %d", len(ds.Devices))
	}
	// Every vendor still has at least one device.
	vendors := map[string]bool{}
	for _, d := range ds.Devices {
		vendors[d.Vendor] = true
	}
	if len(vendors) != 65 {
		t.Fatalf("scaled vendors %d", len(vendors))
	}
}

// TestDeviceIDMatchesSprintf checks the fmt-free device ID formatter
// against the format it replaces, across the padding boundaries and
// past five digits (scale 100 numbers about 217k devices).
func TestDeviceIDMatchesSprintf(t *testing.T) {
	for _, seq := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 21670, 99999, 100000, 216700, 1234567} {
		if got, want := deviceID(seq), fmt.Sprintf("dev-%05d", seq); got != want {
			t.Errorf("deviceID(%d) = %q, want %q", seq, got, want)
		}
	}
}

// BenchmarkGenerate times Generate at seed 20231024: at paper scale, at
// ten times it (skipped under -short), and with the paper population
// replayed at AsOf 2025-08-01, the only case that runs the drift
// restamp.
func BenchmarkGenerate(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"scale=1", Config{Seed: 20231024, Scale: 1}},
		{"scale=10", Config{Seed: 20231024, Scale: 10}},
		{"asof=2025-08-01", Config{Seed: 20231024, Scale: 1, AsOf: date(2025, 8, 1)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if bc.cfg.Scale >= 10 && testing.Short() {
				b.Skip("scale 10 skipped under -short")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Generate(bc.cfg)
			}
		})
	}
}

// BenchmarkSNIsByMinUsers times the SNI filter over the scale-10
// population at the study's default of three users.
func BenchmarkSNIsByMinUsers(b *testing.B) {
	if testing.Short() {
		b.Skip("scale 10 skipped under -short")
	}
	ds := Generate(Config{Seed: 20231024, Scale: 10})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.SNIsByMinUsers(3)
	}
}

func BenchmarkGenerateSmall(b *testing.B) {
	cfg := Config{Seed: 1, Scale: 0.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(cfg)
	}
}

// TestRecordsAgreeWithCryptoTLS replays every generated record through
// the crypto/tls differential oracle. crypto/tls refuses many of the
// legacy hellos the study models (SSL 3.0 and TLS 1.0 offers, suites it
// does not implement), so acceptance is only required of some record;
// every record it does accept must decode here exactly as crypto/tls
// decodes it. The acceptance count depends on the Go version, so it is
// logged, not pinned.
func TestRecordsAgreeWithCryptoTLS(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 1, Scale: 1},
		{Seed: 20231024, Scale: 1},
		{Seed: 1, Scale: 1, AsOf: date(2025, 8, 1)},
	} {
		name := fmt.Sprintf("seed=%d", cfg.Seed)
		if !cfg.AsOf.IsZero() {
			name += "/asof=" + cfg.AsOf.Format("2006-01-02")
		}
		t.Run(name, func(t *testing.T) {
			recs := Generate(cfg).Records
			accepted := 0
			for i := 0; i < recs.Len(); i++ {
				raw := recs.Raw(i)
				if _, ok := tlswire.CryptoTLSView(raw); !ok {
					continue
				}
				accepted++
				if diffs := tlswire.CompareWithCryptoTLS(raw); len(diffs) > 0 {
					t.Errorf("record %d (stack %s): %v", i, recs.At(i).StackID, diffs)
				}
			}
			if accepted == 0 {
				t.Fatalf("crypto/tls accepted none of %d records", recs.Len())
			}
			t.Logf("crypto/tls accepted %d of %d records", accepted, recs.Len())
		})
	}
}
