package ciphersuite

import (
	"testing"
	"testing/quick"
)

func TestRegistryNonEmpty(t *testing.T) {
	if len(registry) < 150 {
		t.Fatalf("registry too small: %d suites", len(registry))
	}
}

func TestLookupKnown(t *testing.T) {
	s, ok := Lookup(0xC02F)
	if !ok {
		t.Fatal("0xC02F not found")
	}
	if s.Name != "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256" {
		t.Fatalf("wrong name %q", s.Name)
	}
	if !s.PFS || !s.AEAD {
		t.Fatal("expected PFS AEAD suite")
	}
	if s.Level() != Optimal {
		t.Fatalf("expected optimal, got %v", s.Level())
	}
}

func TestLookupUnknown(t *testing.T) {
	s, ok := Lookup(0xFFFE)
	if ok {
		t.Fatal("unexpected hit for 0xFFFE")
	}
	if s.ID != 0xFFFE {
		t.Fatalf("placeholder should echo id, got %04x", s.ID)
	}
}

func TestLookupName(t *testing.T) {
	s, ok := LookupName("TLS_RSA_WITH_3DES_EDE_CBC_SHA")
	if !ok || s.ID != 0x000A {
		t.Fatalf("name lookup failed: %v %v", s, ok)
	}
	if _, ok := LookupName("TLS_NOT_A_SUITE"); ok {
		t.Fatal("bogus name resolved")
	}
}

func TestSecurityTaxonomy(t *testing.T) {
	cases := []struct {
		name  string
		level SecurityLevel
		vuln  VulnClass
	}{
		{"TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384", Optimal, VulnNone},
		{"TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256", Optimal, VulnNone},
		{"TLS_AES_128_GCM_SHA256", Optimal, VulnNone},
		// Non-PFS but not broken => suboptimal.
		{"TLS_RSA_WITH_AES_128_GCM_SHA256", Suboptimal, VulnNone},
		{"TLS_RSA_WITH_AES_128_CBC_SHA", Suboptimal, VulnNone},
		// CBC with PFS => suboptimal (not browser-equivalent).
		{"TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA", Suboptimal, VulnNone},
		// MD5 as HMAC is NOT vulnerable per the paper's footnote.
		{"TLS_RSA_WITH_NULL_MD5", Vulnerable, VulnNULL},
		{"TLS_RSA_WITH_RC4_128_MD5", Vulnerable, VulnRC4},
		{"TLS_RSA_WITH_3DES_EDE_CBC_SHA", Vulnerable, Vuln3DES},
		{"TLS_RSA_WITH_DES_CBC_SHA", Vulnerable, VulnDES},
		{"TLS_RSA_EXPORT_WITH_RC2_CBC_40_MD5", Vulnerable, VulnExport},
		{"TLS_DH_anon_WITH_AES_128_CBC_SHA", Vulnerable, VulnAnonKex},
		{"TLS_KRB5_EXPORT_WITH_RC4_40_SHA", Vulnerable, VulnKRB5Export},
		// ECDHE 3DES is vulnerable even though PFS.
		{"TLS_ECDHE_RSA_WITH_3DES_EDE_CBC_SHA", Vulnerable, Vuln3DES},
	}
	for _, c := range cases {
		s, ok := LookupName(c.name)
		if !ok {
			t.Fatalf("%s not registered", c.name)
		}
		if got := s.Level(); got != c.level {
			t.Errorf("%s: level %v want %v", c.name, got, c.level)
		}
		if got := s.VulnClass(); got != c.vuln {
			t.Errorf("%s: vuln %v want %v", c.name, got, c.vuln)
		}
	}
}

func TestSHA1MACNotVulnerable(t *testing.T) {
	// MD5/SHA-1 as HMAC must never be the *reason* a suite is vulnerable.
	s, _ := LookupName("TLS_RSA_WITH_AES_128_CBC_SHA")
	if s.Level() == Vulnerable {
		t.Fatal("SHA-1 HMAC suite wrongly flagged vulnerable")
	}
	s, _ = LookupName("TLS_KRB5_WITH_RC4_128_MD5")
	if s.VulnClass() != VulnRC4 {
		t.Fatalf("vuln should be attributed to RC4, got %v", s.VulnClass())
	}
}

func TestIsGREASE(t *testing.T) {
	grease := []uint16{0x0A0A, 0x1A1A, 0x2A2A, 0x3A3A, 0x4A4A, 0x5A5A, 0x6A6A, 0x7A7A, 0x8A8A, 0x9A9A, 0xAAAA, 0xBABA, 0xCACA, 0xDADA, 0xEAEA, 0xFAFA}
	for _, id := range grease {
		if !IsGREASE(id) {
			t.Errorf("0x%04X should be GREASE", id)
		}
	}
	for _, id := range []uint16{0x0000, 0xC02F, 0x0A1A, 0x1A0A, 0x0B0B, 0xFFFF} {
		if IsGREASE(id) {
			t.Errorf("0x%04X should not be GREASE", id)
		}
	}
}

func TestSCSV(t *testing.T) {
	for _, id := range []uint16{SCSVRenegotiation, SCSVFallback} {
		s, ok := Lookup(id)
		if !ok || !s.IsSCSV() {
			t.Errorf("0x%04X should be a registered SCSV", id)
		}
	}
	s, _ := Lookup(0xC02F)
	if s.IsSCSV() {
		t.Error("real suite misclassified as SCSV")
	}
}

func TestListLevel(t *testing.T) {
	opt := []uint16{0xC02F, 0xC02B}
	if got := ListLevel(opt); got != Optimal {
		t.Errorf("optimal list classified %v", got)
	}
	sub := []uint16{0xC02F, 0x002F}
	if got := ListLevel(sub); got != Suboptimal {
		t.Errorf("suboptimal list classified %v", got)
	}
	vuln := []uint16{0xC02F, 0x000A}
	if got := ListLevel(vuln); got != Vulnerable {
		t.Errorf("vulnerable list classified %v", got)
	}
	// GREASE and SCSV don't affect the level.
	withNoise := []uint16{0x0A0A, SCSVRenegotiation, 0xC02F}
	if got := ListLevel(withNoise); got != Optimal {
		t.Errorf("noisy list classified %v", got)
	}
}

func TestVulnClasses(t *testing.T) {
	ids := []uint16{0x000A, 0x0005, 0xC02F, 0x0019}
	got := VulnClasses(ids)
	want := []VulnClass{Vuln3DES, VulnRC4, VulnExport}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestLowestVulnerableIndex(t *testing.T) {
	if got := LowestVulnerableIndex([]uint16{0xC02F, 0xC02B}); got != -1 {
		t.Errorf("clean list index %d", got)
	}
	if got := LowestVulnerableIndex([]uint16{0x0005, 0xC02F}); got != 0 {
		t.Errorf("want 0 got %d", got)
	}
	if got := LowestVulnerableIndex([]uint16{0xC02F, 0xC013, 0x000A}); got != 2 {
		t.Errorf("want 2 got %d", got)
	}
}

func TestSimilarAlgorithms(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"AES_128_CBC", "AES_256_CBC", true},
		{"AES_128_GCM", "AES_256_GCM", true},
		{"SHA256", "SHA384", true},
		{"SHA", "SHA256", false}, // SHA-1 is not similar to SHA-2
		{"AES_128_CBC", "AES_128_GCM", false},
		{"RC4_128", "RC4_128", true},
		{"RC4_128", "AES_128_CBC", false},
		{"CAMELLIA_128_CBC", "CAMELLIA_256_CBC", true},
	}
	for _, c := range cases {
		if got := SimilarAlgorithms(c.a, c.b); got != c.want {
			t.Errorf("SimilarAlgorithms(%q,%q)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLevelStringAndVulnString(t *testing.T) {
	if Optimal.String() != "optimal" || Suboptimal.String() != "suboptimal" || Vulnerable.String() != "vulnerable" {
		t.Fatal("level strings wrong")
	}
	if Vuln3DES.String() != "3DES" || VulnNone.String() != "-" {
		t.Fatal("vuln strings wrong")
	}
	if SecurityLevel(99).String() == "" || VulnClass(99).String() == "" {
		t.Fatal("out-of-range strings empty")
	}
}

func TestAllSortedAndConsistent(t *testing.T) {
	all := All()
	if len(all) != len(registry) {
		t.Fatalf("All()=%d registry=%d", len(all), len(registry))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("All() not sorted at %d", i)
		}
	}
	for _, s := range all {
		got, ok := Lookup(s.ID)
		if !ok || got.Name != s.Name {
			t.Fatalf("roundtrip failed for %04x", s.ID)
		}
	}
}

// Property: every registered suite classifies into exactly one level and the
// level is consistent with VulnClass.
func TestPropertyLevelConsistency(t *testing.T) {
	for _, s := range All() {
		lvl := s.Level()
		vc := s.VulnClass()
		if (vc != VulnNone) != (lvl == Vulnerable) {
			t.Errorf("%s: vuln=%v level=%v inconsistent", s.Name, vc, lvl)
		}
	}
}

// Property: Lookup never panics and always echoes the requested ID.
func TestPropertyLookupTotal(t *testing.T) {
	f := func(id uint16) bool {
		s, _ := Lookup(id)
		return s.ID == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: GREASE ids are never registered as real suites.
func TestPropertyGreaseUnregistered(t *testing.T) {
	f := func(id uint16) bool {
		if !IsGREASE(id) {
			return true
		}
		_, ok := Lookup(id)
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ListLevel is order-insensitive.
func TestPropertyListLevelOrderInsensitive(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		rev := make([]uint16, len(raw))
		for i, v := range raw {
			rev[len(raw)-1-i] = v
		}
		return ListLevel(raw) == ListLevel(rev)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Lookup(uint16(i))
	}
}

func BenchmarkListLevel(b *testing.B) {
	ids := []uint16{0x0A0A, 0xC02B, 0xC02F, 0xC02C, 0xC030, 0xC013, 0xC014, 0x009C, 0x009D, 0x002F, 0x0035, 0x000A, 0x00FF}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ListLevel(ids)
	}
}
