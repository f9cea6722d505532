package analysis

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/ciphersuite"
	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/libcorpus"
	"repro/internal/pki"
	"repro/internal/probe"
	"repro/internal/simnet"
	"repro/internal/tlswire"
)

// Shared fixtures: a paper-scale dataset + client analysis, and a smaller
// probed world, cached across tests.
var (
	paperDS     *dataset.Dataset
	paperClient *Client
	smallSrv    *Server
)

func client(t testing.TB) *Client {
	t.Helper()
	if paperClient == nil {
		paperDS = dataset.Generate(dataset.Config{Seed: 20231024, Scale: 1})
		c, err := NewClientWorkers(paperDS, 0)
		if err != nil {
			t.Fatal(err)
		}
		paperClient = c
	}
	return paperClient
}

func server(t testing.TB) *Server {
	t.Helper()
	if smallSrv == nil {
		ds := dataset.Generate(dataset.Config{Seed: 41, Scale: 0.35})
		snis := ds.SNIsByMinUsers(2)
		w := simnet.Build(simnet.Config{Seed: 2, SNIs: snis})
		results, stats := probe.New(probe.WorldProber{World: w}, probe.Options{}).Run(context.Background(), snis, simnet.Vantages())
		smallSrv = NewServerFromProbes(w, ds, snis, simnet.Vantages(), results, stats)
	}
	return smallSrv
}

func TestClientFingerprintCount(t *testing.T) {
	c := client(t)
	if n := c.NumFingerprints(); n < 400 || n > 1600 {
		t.Errorf("fingerprints %d, want order of the paper's 903", n)
	}
}

func TestTable2Shape(t *testing.T) {
	c := client(t)
	d := c.Table2()
	// Paper: 77.47% / 11.43% / 8.32% / 2.78%.
	if d.Deg1 < 0.55 || d.Deg1 > 0.95 {
		t.Errorf("degree-1 share %.3f, want ~0.77", d.Deg1)
	}
	// Single-vendor fingerprints dominate; every other bucket is small.
	for name, v := range map[string]float64{"deg2": d.Deg2, "deg3-5": d.Deg3to5, "deg>5": d.DegOver5} {
		if v >= d.Deg1 {
			t.Errorf("%s (%.3f) should be far below deg1 (%.3f)", name, v, d.Deg1)
		}
		if v > 0.25 {
			t.Errorf("%s share %.3f too large", name, v)
		}
	}
	if d.Deg2 == 0 {
		t.Error("no degree-2 fingerprints (vendor pairs should share some)")
	}
	sum := d.Deg1 + d.Deg2 + d.Deg3to5 + d.DegOver5
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %v", sum)
	}
}

func TestFigure2DoCShape(t *testing.T) {
	c := client(t)
	vendorDoC := c.DoCVendorAll()
	if len(vendorDoC) != 65 {
		t.Fatalf("vendors %d", len(vendorDoC))
	}
	withUnique := 0
	above05 := 0
	var values []float64
	for _, v := range vendorDoC {
		values = append(values, v)
		if v > 0 {
			withUnique++
		}
		if v > 0.5 {
			above05++
		}
	}
	// Paper: >70% of vendors have at least one unique fingerprint; ~40%
	// have DoC_vendor > 0.5.
	if frac := float64(withUnique) / 65; frac < 0.6 {
		t.Errorf("vendors with unique fingerprints %.2f, want > 0.7", frac)
	}
	if frac := float64(above05) / 65; frac < 0.2 || frac > 0.8 {
		t.Errorf("vendors with DoC>0.5: %.2f, want ~0.4", frac)
	}
	xs, ys := graph.CDF(values)
	if len(xs) != 65 || ys[64] != 1 {
		t.Fatal("CDF malformed")
	}

	deviceDoC := c.DoCDeviceAll()
	fullyDisjoint := 0
	for _, v := range deviceDoC {
		if v >= 0.999 {
			fullyDisjoint++
		}
	}
	// Paper: ~20% of vendors have DoC_device = 1.
	if fullyDisjoint == 0 {
		t.Error("no vendor with fully disjoint per-device fingerprints")
	}
}

func TestTable3TopVendors(t *testing.T) {
	c := client(t)
	rows := c.Table3(10)
	if len(rows) != 10 {
		t.Fatalf("rows %d", len(rows))
	}
	// Amazon and Google lead the fingerprint counts (Table 3's top two).
	top2 := map[string]bool{rows[0].Vendor: true, rows[1].Vendor: true}
	if !top2["Amazon"] || !top2["Google"] {
		t.Errorf("top vendors %s/%s, want Amazon and Google", rows[0].Vendor, rows[1].Vendor)
	}
	for _, r := range rows {
		if r.UsedBySingleDev < 0.2 {
			t.Errorf("%s: single-device share %.2f suspiciously low", r.Vendor, r.UsedBySingleDev)
		}
		if r.SharedBy10Plus > 0.5 {
			t.Errorf("%s: 10+-device share %.2f too high", r.Vendor, r.SharedBy10Plus)
		}
	}
}

func TestTable4KnownPairs(t *testing.T) {
	c := client(t)
	pairs := c.Table4(0.2)
	if len(pairs) == 0 {
		t.Fatal("no similar vendor pairs")
	}
	find := func(a, b string) (float64, bool) {
		for _, p := range pairs {
			if (p.A == a && p.B == b) || (p.A == b && p.B == a) {
				return p.Similarity, true
			}
		}
		return 0, false
	}
	// HDHomeRun/SiliconDust share the identical stack pool.
	if sim, ok := find("HDHomeRun", "SiliconDust"); !ok || sim < 0.8 {
		t.Errorf("HDHomeRun/SiliconDust similarity %v (found=%v), want ~1", sim, ok)
	}
	// Roku-platform TV brands overlap.
	if _, ok := find("Sharp", "TCL"); !ok {
		t.Error("Sharp/TCL pair missing")
	}
	if _, ok := find("Arlo", "NETGEAR"); !ok {
		t.Error("Arlo/NETGEAR pair missing")
	}
}

func TestTable5ServerTied(t *testing.T) {
	c := client(t)
	rows := c.Table5(2)
	if len(rows) < 5 {
		t.Fatalf("only %d server-tied rows", len(rows))
	}
	slds := map[string]bool{}
	multiVendor := 0
	for _, r := range rows {
		slds[r.SLD] = true
		if len(r.Vendors) >= 2 {
			multiVendor++
		}
	}
	for _, want := range []string{"sonos.com", "roku.com"} {
		if !slds[want] {
			t.Errorf("expected SLD %s in Table 5", want)
		}
	}
	if multiVendor != len(rows) {
		t.Error("Table 5 must only contain multi-vendor rows")
	}
	// mgo-images.com carries the RC/3DES-vulnerable SDK fingerprint.
	for _, r := range rows {
		if r.SLD == "mgo-images.com" && len(r.VulnLabels) == 0 {
			t.Error("mgo-images.com row should carry vulnerability labels")
		}
	}
}

func TestServerTiedFraction(t *testing.T) {
	c := client(t)
	matcher := libcorpus.NewMatcher()
	frac := c.ServerTiedSNIFraction(matcher)
	// Paper: 17.42% of SNIs.
	if frac <= 0 || frac > 0.8 {
		t.Errorf("server-tied SNI fraction %.3f, want ~0.17", frac)
	}
}

func TestVulnerabilityStats(t *testing.T) {
	c := client(t)
	st := c.Vulnerabilities()
	ratio := float64(st.WithVulnerable) / float64(st.TotalFingerprints)
	if ratio < 0.25 || ratio > 0.75 {
		t.Errorf("vulnerable share %.2f, want ~0.45", ratio)
	}
	if st.ByClass[ciphersuite.Vuln3DES] == 0 {
		t.Error("no 3DES fingerprints")
	}
	// 3DES must be the most common vulnerable component (paper: 41.64%).
	for cl, n := range st.ByClass {
		if n > st.ByClass[ciphersuite.Vuln3DES] {
			t.Errorf("%v (%d) exceeds 3DES (%d)", cl, n, st.ByClass[ciphersuite.Vuln3DES])
		}
	}
	if len(st.AwfulVendors) < 8 {
		t.Errorf("awful vendors %d, want ~14", len(st.AwfulVendors))
	}
	found := map[string]bool{}
	for _, v := range st.AwfulVendors {
		found[v] = true
	}
	if !found["Synology"] {
		t.Error("Synology missing from awful vendors")
	}
}

func TestLibraryMatching(t *testing.T) {
	c := client(t)
	res := c.MatchLibraries(libcorpus.NewMatcher())
	if res.MatchedFingerprints < 3 {
		t.Errorf("matched %d fingerprints, want a handful (paper: 23)", res.MatchedFingerprints)
	}
	if res.MatchRate() > 0.10 {
		t.Errorf("match rate %.3f, want ~0.0255", res.MatchRate())
	}
	if len(res.MatchedLibraries) == 0 {
		t.Fatal("no matched libraries")
	}
	if res.UnsupportedLibraries == 0 {
		t.Error("expected mostly unsupported matched libraries")
	}
	if res.PerFamily["curl+OpenSSL"] == 0 {
		t.Error("expected curl+OpenSSL matches")
	}
}

func TestTable11Semantics(t *testing.T) {
	c := client(t)
	rows := c.Table11(libcorpus.NewMatcher())
	if len(rows) != 5 {
		t.Fatalf("rows %d", len(rows))
	}
	total := 0.0
	byCat := map[fingerprint.MatchCategory]Table11Row{}
	for _, r := range rows {
		total += r.PercentTotal
		byCat[r.Category] = r
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("percentages sum to %.3f", total)
	}
	// Customization + SimilarComponent dominate (paper: 46.6% + 35.8%).
	dominant := byCat[fingerprint.Customization].PercentTotal + byCat[fingerprint.SimilarComponent].PercentTotal
	if dominant < 0.5 {
		t.Errorf("customization+similar share %.2f, want > 0.5", dominant)
	}
}

func TestFigure8(t *testing.T) {
	c := client(t)
	buckets := c.Figure8(libcorpus.NewMatcher(), 10)
	if len(buckets) != 10 {
		t.Fatalf("buckets %d", len(buckets))
	}
	n := 0
	for _, b := range buckets {
		n += b.SameComp + b.SimComp
	}
	if n == 0 {
		t.Fatal("no tuples in same/similar component categories")
	}
}

func TestTable12Versions(t *testing.T) {
	c := client(t)
	counts := c.Table12()
	if counts[tlswire.VersionTLS13] != 0 {
		t.Error("TLS 1.3 observed; paper saw none")
	}
	if counts[tlswire.VersionTLS12] == 0 {
		t.Fatal("no TLS 1.2")
	}
	if counts[tlswire.VersionTLS12] < counts[tlswire.VersionTLS10] {
		t.Error("TLS 1.2 should dominate TLS 1.0")
	}
	if counts[tlswire.VersionSSL30] == 0 {
		t.Error("expected SSL 3.0 stragglers")
	}
	devices, vendors := c.SSL3Census()
	if devices == 0 || len(vendors) == 0 {
		t.Fatal("SSL3 census empty")
	}
	if vendors["Amazon"] == 0 {
		t.Error("Amazon missing from SSL3 census")
	}
}

func TestFigure9And11And12(t *testing.T) {
	c := client(t)
	f9 := c.Figure9()
	if len(f9) != 65 {
		t.Fatalf("figure 9 vendors %d", len(f9))
	}
	f11 := c.Figure11()
	clean := 0
	firstPreferred := 0
	for _, r := range f11 {
		if len(r.Indices) == 0 {
			clean++
		}
		if r.FirstPreferred > 0 {
			firstPreferred++
		}
	}
	// Paper: devices of 7 vendors never propose vulnerable suites; at
	// least one device of 13 vendors proposes one first.
	if clean == 0 {
		t.Error("no clean vendors in figure 11")
	}
	if firstPreferred == 0 {
		t.Error("no vendor proposes a vulnerable suite first")
	}
	f12 := c.Figure12()
	var belkin *Figure12Row
	for i := range f12 {
		if f12[i].Vendor == "Belkin" {
			belkin = &f12[i]
		}
	}
	if belkin == nil {
		t.Fatal("Belkin missing from figure 12")
	}
	if belkin.Cipher["RC4_128"] == 0 {
		t.Error("Belkin should prefer RC4_128 first")
	}
}

func TestCensus(t *testing.T) {
	c := client(t)
	census := c.Census()
	if census.OCSPDevices == 0 || census.OCSPVendors == 0 {
		t.Error("no OCSP devices")
	}
	if census.GREASESuiteDevices < 100 {
		t.Errorf("GREASE suite devices %d, want hundreds", census.GREASESuiteDevices)
	}
	if census.GREASEExtDevices < 100 {
		t.Errorf("GREASE ext devices %d", census.GREASEExtDevices)
	}
}

func TestGraphExports(t *testing.T) {
	c := client(t)
	g := c.VendorGraph()
	dot := g.Dot(graph.DotOptions{
		Name: "figure1",
		RightColor: func(key string) string {
			switch c.Fingerprint(key).Print.Level() {
			case ciphersuite.Vulnerable:
				return "#d62728"
			case ciphersuite.Suboptimal:
				return "#aec7e8"
			default:
				return "#4878cf"
			}
		},
	})
	if !strings.Contains(dot, "figure1") || !strings.Contains(dot, "#d62728") {
		t.Error("figure 1 DOT incomplete")
	}
	amazonTypes := c.TypeGraphForVendor("Amazon")
	if amazonTypes.NumLefts() < 3 {
		t.Errorf("amazon device types %d", amazonTypes.NumLefts())
	}
	echo := c.DeviceGraphForVendorType("Amazon", dataset.TypeSpeaker)
	if echo.NumLefts() == 0 || echo.NumRights() == 0 {
		t.Error("echo graph empty")
	}
}

// ---- server side ----

func TestTable6(t *testing.T) {
	s := server(t)
	t6 := s.Table6()
	if t6.Servers == 0 || t6.LeafCerts == 0 {
		t.Fatalf("empty cert dataset: %+v", t6)
	}
	if t6.LeafCerts > t6.Servers {
		t.Errorf("more leaves (%d) than servers (%d)", t6.LeafCerts, t6.Servers)
	}
	if t6.IssuerOrgs < 10 {
		t.Errorf("issuer orgs %d, want tens (paper: 33)", t6.IssuerOrgs)
	}
}

func TestSharing(t *testing.T) {
	s := server(t)
	sh := s.Sharing()
	if sh.ServersPerCertMean < 1 {
		t.Errorf("servers per cert mean %.2f", sh.ServersPerCertMean)
	}
	if sh.ServersPerCertMax < 2 {
		t.Errorf("max servers per cert %d, want sharing", sh.ServersPerCertMax)
	}
	if sh.MultiIPFraction <= 0.2 {
		t.Errorf("multi-IP fraction %.2f, want ~0.65", sh.MultiIPFraction)
	}
}

func TestFigure5(t *testing.T) {
	s := server(t)
	cells := s.Figure5()
	if len(cells) == 0 {
		t.Fatal("empty issuer matrix")
	}
	sums := map[string]float64{}
	digicert := 0.0
	totalRatio := 0.0
	for _, c := range cells {
		sums[c.Vendor] += c.Ratio
		totalRatio += c.Ratio
		if c.Issuer == "DigiCert" {
			digicert += c.Ratio
		}
	}
	for v, sum := range sums {
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("vendor %s ratios sum to %.3f", v, sum)
		}
	}
	if digicert == 0 {
		t.Error("DigiCert absent from the matrix")
	}
}

func TestPrivateLeafFraction(t *testing.T) {
	s := server(t)
	frac, devices := s.PrivateLeafFraction()
	// Paper: 9.86% of leaves, 391 devices.
	if frac < 0.02 || frac > 0.40 {
		t.Errorf("private leaf fraction %.3f, want ~0.10", frac)
	}
	if devices == 0 {
		t.Error("no devices behind private leaves")
	}
	only := s.VendorsOnlyPrivate()
	found := map[string]bool{}
	for _, v := range only {
		found[v] = true
	}
	for _, want := range []string{"Canary", "Tuya", "Obihai"} {
		if !found[want] {
			t.Errorf("%s should be private-only (got %v)", want, only)
		}
	}
}

func TestTable7And14(t *testing.T) {
	s := server(t)
	t7 := s.Table7()
	if len(t7) == 0 {
		t.Fatal("no validation failures")
	}
	slds := map[string]bool{}
	for _, r := range t7 {
		slds[r.SLD] = true
	}
	for _, want := range []string{"roku.com", "netflix.com"} {
		if !slds[want] {
			t.Errorf("%s missing from Table 7", want)
		}
	}
	t14 := s.Table14()
	if len(t14) == 0 {
		t.Fatal("no private-issuer chains")
	}
}

func TestTable8Expired(t *testing.T) {
	s := server(t)
	rows := s.Table8()
	slds := map[string]string{}
	for _, r := range rows {
		slds[r.SLD] = r.IssuerOrg
	}
	if org, ok := slds["skyegloup.com"]; ok && org != "Gandi" {
		t.Errorf("skyegloup.com issuer %s, want Gandi", org)
	}
	if org, ok := slds["wink.com"]; ok && org != "COMODO" {
		t.Errorf("wink.com issuer %s, want COMODO", org)
	}
	if len(rows) == 0 {
		t.Error("no expired certificates in world")
	}
	// They were already expired during the capture window.
	during := s.ExpiredDuringCapture()
	if len(during) == 0 {
		t.Error("expired-during-capture set empty")
	}
}

func TestCNMismatch(t *testing.T) {
	s := server(t)
	rows := s.CNMismatches()
	foundTuya := false
	for _, r := range rows {
		if r.SLD == "tuyaus.com" {
			foundTuya = true
		}
	}
	if !foundTuya {
		t.Error("a2.tuyaus.com CN mismatch not detected")
	}
}

func TestFigure6AndValidity(t *testing.T) {
	s := server(t)
	points := s.Figure6()
	if len(points) == 0 {
		t.Fatal("no figure 6 points")
	}
	for _, p := range points {
		if p.ChainClass == 0 && p.ValidityDays > 1000 {
			// public leafs under 1000 days, except the expired legacy ones
			if p.ValidityDays > 1100 {
				t.Errorf("public-chain cert with %d-day validity for %s", p.ValidityDays, p.Vendor)
			}
		}
		if p.ChainClass == 2 && p.InCT {
			t.Errorf("private chain logged in CT (%s)", p.Vendor)
		}
	}
}

func TestTable9Netflix(t *testing.T) {
	s := server(t)
	rows := s.Table9()
	if len(rows) == 0 {
		t.Skip("no netflix servers in this scaled world")
	}
	for _, r := range rows {
		if r.InCT {
			t.Error("Netflix-signed leaves must not be in CT")
		}
	}
	// Expect both the long (8150) and short modes at full scale; at
	// reduced scale at least one mode must be present.
	hasLong := false
	for _, r := range rows {
		for _, d := range r.ValidityDays {
			if d > 7000 {
				hasLong = true
			}
		}
	}
	if len(rows) == 2 && !hasLong {
		t.Error("long-lived Netflix chain missing")
	}
}

func TestCTStats(t *testing.T) {
	s := server(t)
	ct := s.CT()
	if ct.PrivateLogged != 0 {
		t.Errorf("%d private-CA leaves logged in CT, want 0", ct.PrivateLogged)
	}
	if ct.PublicLogged == 0 {
		t.Error("no public leaves logged")
	}
	if ct.PrivateNotLogged == 0 {
		t.Error("no private leaves at all")
	}
	// Most public leaves should be logged.
	if ct.PublicNotLogged > ct.PublicLogged {
		t.Errorf("unlogged public (%d) exceeds logged (%d)", ct.PublicNotLogged, ct.PublicLogged)
	}
}

func TestTable15And16(t *testing.T) {
	s := server(t)
	top := s.Table15(30)
	if len(top) == 0 {
		t.Fatal("no SLDs")
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Devices < top[i].Devices {
			t.Fatal("table 15 not sorted")
		}
	}
	stats := s.SLDs()
	if stats.DistinctSLDs < 30 {
		t.Errorf("distinct SLDs %d", stats.DistinctSLDs)
	}
	if stats.MaxDevicesPerSLD < stats.MedianDevicesPerSLD {
		t.Error("SLD stats inconsistent")
	}

	t16 := s.Table16()
	ny := t16.Extracted[simnet.VantageNewYork]
	if ny == 0 {
		t.Fatal("no NY extractions")
	}
	if t16.SharedAcrossAll == 0 {
		t.Error("no SNIs consistent across vantages")
	}
	if t16.SharedAcrossAll > ny {
		t.Error("shared exceeds extracted")
	}
	// Overall consistency: most SNIs present the same cert everywhere.
	if float64(t16.SharedAcrossAll)/float64(ny) < 0.7 {
		t.Errorf("cross-vantage consistency %.2f too low", float64(t16.SharedAcrossAll)/float64(ny))
	}
}

func TestUnreachableSNIs(t *testing.T) {
	s := server(t)
	if len(s.UnreachableSNIs) == 0 {
		t.Error("expected some unreachable SNIs (the paper lost 43)")
	}
	if len(s.Records)+len(s.UnreachableSNIs) > len(s.ProbedSNIs) {
		t.Error("records + unreachable exceed probed set")
	}
}

func TestChainStatusDistribution(t *testing.T) {
	s := server(t)
	counts := map[pki.ChainStatus]int{}
	for _, r := range s.Records {
		counts[r.Status]++
	}
	if counts[pki.StatusValid] == 0 {
		t.Error("no valid chains")
	}
	// Valid should dominate (most leaves are public-CA signed).
	total := len(s.Records)
	if float64(counts[pki.StatusValid])/float64(total) < 0.4 {
		t.Errorf("valid share %.2f too low: %v", float64(counts[pki.StatusValid])/float64(total), counts)
	}
}

func BenchmarkNewClientWorkers(b *testing.B) {
	ds := dataset.Generate(dataset.Config{Seed: 1, Scale: 0.2})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewClientWorkers(ds, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	c := client(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Table5(2)
	}
}
