package fingerprint

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ciphersuite"
	"repro/internal/tlswire"
)

func fp(version tlswire.Version, suites, exts []uint16) Fingerprint {
	return Fingerprint{Version: version, CipherSuites: suites, Extensions: exts}
}

func TestKeyEqualityMatchesTuple(t *testing.T) {
	a := fp(tlswire.VersionTLS12, []uint16{0xC02F, 0x009C}, []uint16{0, 10, 11})
	b := fp(tlswire.VersionTLS12, []uint16{0xC02F, 0x009C}, []uint16{0, 10, 11})
	if a.Key() != b.Key() {
		t.Fatal("identical tuples must share key")
	}
	c := fp(tlswire.VersionTLS11, []uint16{0xC02F, 0x009C}, []uint16{0, 10, 11})
	if a.Key() == c.Key() {
		t.Fatal("version must be part of the key")
	}
	d := fp(tlswire.VersionTLS12, []uint16{0x009C, 0xC02F}, []uint16{0, 10, 11})
	if a.Key() == d.Key() {
		t.Fatal("suite order must be part of the key")
	}
	e := fp(tlswire.VersionTLS12, []uint16{0xC02F, 0x009C}, []uint16{0, 11, 10})
	if a.Key() == e.Key() {
		t.Fatal("extension order must be part of the key")
	}
}

func TestHashStable(t *testing.T) {
	a := fp(tlswire.VersionTLS12, []uint16{0xC02F}, []uint16{0})
	if a.Hash() != a.Hash() {
		t.Fatal("hash not deterministic")
	}
	if len(a.Hash()) != 24 {
		t.Fatalf("hash length %d", len(a.Hash()))
	}
	b := fp(tlswire.VersionTLS12, []uint16{0xC030}, []uint16{0})
	if a.Hash() == b.Hash() {
		t.Fatal("different prints must hash differently")
	}
	// Field-boundary ambiguity: suites [1,2]+exts [] vs suites [1]+exts [2].
	x := fp(tlswire.VersionTLS12, []uint16{1, 2}, nil)
	y := fp(tlswire.VersionTLS12, []uint16{1}, []uint16{2})
	if x.Hash() == y.Hash() {
		t.Fatal("hash must separate suites from extensions")
	}
}

func TestFromClientHello(t *testing.T) {
	ch := &tlswire.ClientHello{
		LegacyVersion: tlswire.VersionTLS12,
		CipherSuites:  []uint16{0xC02F, 0x00FF},
		Extensions: []tlswire.Extension{
			{Type: tlswire.ExtServerName},
			{Type: tlswire.ExtSessionTicket},
		},
	}
	f := FromClientHello(ch)
	if f.Version != tlswire.VersionTLS12 || len(f.CipherSuites) != 2 || len(f.Extensions) != 2 {
		t.Fatalf("bad fingerprint %+v", f)
	}
}

func TestGREASEDetection(t *testing.T) {
	a := fp(tlswire.VersionTLS12, []uint16{0x1A1A, 0xC02F}, []uint16{0xDADA, 0})
	b := fp(tlswire.VersionTLS12, []uint16{0x5A5A, 0xC02F}, []uint16{0x2A2A, 0})
	if a.Key() == b.Key() {
		t.Fatal("keys of different GREASE values should differ")
	}
	if !a.HasGREASESuites() || !a.HasGREASEExtensions() {
		t.Fatal("GREASE detection failed")
	}
	c := fp(tlswire.VersionTLS12, []uint16{0xC02F}, []uint16{0})
	if c.HasGREASESuites() || c.HasGREASEExtensions() {
		t.Fatal("false GREASE detection")
	}
}

func TestProposesFallbackSCSV(t *testing.T) {
	a := fp(tlswire.VersionTLS12, []uint16{0xC02F, ciphersuite.SCSVFallback}, nil)
	if !a.ProposesFallbackSCSV() {
		t.Fatal("SCSV not detected")
	}
	b := fp(tlswire.VersionTLS12, []uint16{0xC02F, ciphersuite.SCSVRenegotiation}, nil)
	if b.ProposesFallbackSCSV() {
		t.Fatal("renego SCSV misdetected as fallback")
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []uint16
		want float64
	}{
		{[]uint16{1, 2, 3}, []uint16{1, 2, 3}, 1},
		{[]uint16{1, 2}, []uint16{3, 4}, 0},
		{[]uint16{1, 2, 3}, []uint16{2, 3, 4}, 0.5},
		{[]uint16{1, 1, 2}, []uint16{1, 2, 2}, 1}, // multiset collapse
		{nil, nil, 1},
		{[]uint16{1}, nil, 0},
	}
	for _, c := range cases {
		if got := JaccardUint16(c.a, c.b); got != c.want {
			t.Errorf("Jaccard(%v,%v)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCategorizeAgainst(t *testing.T) {
	// Base library list: ECDHE+RSA AES-GCM/CBC with SHA2.
	lib := []uint16{0xC02F, 0xC030, 0xC027, 0xC028, 0x009C}
	if got := CategorizeAgainst(lib, lib); got != ExactCiphersuites {
		t.Errorf("exact: %v", got)
	}
	reordered := []uint16{0x009C, 0xC030, 0xC02F, 0xC028, 0xC027}
	if got := CategorizeAgainst(reordered, lib); got != SameSetDiffOrder {
		t.Errorf("reorder: %v", got)
	}
	// Same components, different combination: swap in ECDHE_RSA AES_256_GCM
	// with 128 variants rearranged — use a different suite made of the
	// same component sets. lib components: kex {ECDHE_RSA, RSA},
	// cipher {AES_128_GCM, AES_256_GCM, AES_128_CBC, AES_256_CBC},
	// mac {AEAD, SHA256, SHA384}.
	sameComp := []uint16{0xC02F, 0xC030, 0xC027, 0xC028, 0x009C, 0x009D, 0x003C}
	// adds RSA AES_256_GCM (AEAD) and RSA AES_128_CBC SHA256: all components
	// already present.
	if got := CategorizeAgainst(sameComp, lib); got != SameComponent {
		t.Errorf("same component: %v", got)
	}
	// Similar: replace AES_128 variants with AES_256-only selection plus
	// SHA384 instead of SHA256 — length variants only.
	similar := []uint16{0xC030, 0xC028, 0x009D, 0x003D}
	// components: kex {ECDHE_RSA, RSA} ✓, cipher {AES_256_GCM, AES_256_CBC}
	// similar to lib's ciphers, mac {AEAD, SHA384, SHA256}.
	if got := CategorizeAgainst(similar, lib); got != SimilarComponent {
		t.Errorf("similar component: %v", got)
	}
	// Customization: RC4/3DES lists share nothing with the modern library.
	custom := []uint16{0x0005, 0x000A, 0x0004}
	if got := CategorizeAgainst(custom, lib); got != Customization {
		t.Errorf("custom: %v", got)
	}
}

func TestCategorizeSHA1NotSimilarToSHA2(t *testing.T) {
	// lib uses SHA-1 CBC suites; device uses same ciphers with SHA256 MACs.
	lib := []uint16{0xC013, 0xC014}    // ECDHE_RSA AES CBC SHA
	device := []uint16{0xC027, 0xC028} // ECDHE_RSA AES CBC SHA256/384
	if got := CategorizeAgainst(device, lib); got != Customization {
		t.Errorf("SHA-1 vs SHA-2 should be Customization, got %v", got)
	}
}

func corpusForTest() []LibraryEntry {
	mk := func(fam, ver string, year int, supported bool, suites []uint16) LibraryEntry {
		return LibraryEntry{
			Family: fam, Version: ver, ReleaseYear: year, SupportedIn2020: supported,
			Print: Fingerprint{
				Version:      tlswire.VersionTLS12,
				CipherSuites: suites,
				Extensions:   []uint16{0, 10, 11, 13, 0xFF01},
			},
		}
	}
	return []LibraryEntry{
		mk("OpenSSL", "1.0.2f", 2016, false, []uint16{0xC02F, 0xC030, 0xC013, 0xC014, 0x009C, 0x002F, 0x0035, 0x000A}),
		mk("OpenSSL", "1.0.2u", 2019, false, []uint16{0xC02F, 0xC030, 0xC013, 0xC014, 0x009C, 0x002F, 0x0035, 0x000A}),
		mk("OpenSSL", "1.1.1i", 2020, true, []uint16{0x1301, 0x1302, 0x1303, 0xC02F, 0xC030, 0xCCA8}),
		mk("wolfSSL", "3.15.3", 2018, false, []uint16{0xC02B, 0xC02F, 0xC013, 0x009C}),
	}
}

func TestMatcherExact(t *testing.T) {
	m := NewMatcher(corpusForTest())
	if m.CorpusSize() != 4 {
		t.Fatalf("size %d", m.CorpusSize())
	}
	// 1.0.2f and 1.0.2u share a fingerprint => 3 distinct prints.
	if m.DistinctFingerprints() != 3 {
		t.Fatalf("distinct %d", m.DistinctFingerprints())
	}
	probe := Fingerprint{
		Version:      tlswire.VersionTLS12,
		CipherSuites: []uint16{0xC02F, 0xC030, 0xC013, 0xC014, 0x009C, 0x002F, 0x0035, 0x000A},
		Extensions:   []uint16{0, 10, 11, 13, 0xFF01},
	}
	e, ok := m.MatchExact(probe)
	if !ok {
		t.Fatal("exact match expected")
	}
	if e.Version != "1.0.2u" {
		t.Fatalf("should report highest version, got %s", e.Version)
	}
	probe.Extensions = []uint16{0, 10}
	if _, ok := m.MatchExact(probe); ok {
		t.Fatal("different extensions must not match exactly")
	}
}

// TestMatcherEntriesSortedFreshSlice: Entries sorts the corpus by family
// then version once per matcher and hands every caller its own top-level
// slice, so one caller reordering its copy cannot change the next.
func TestMatcherEntriesSortedFreshSlice(t *testing.T) {
	corpus := corpusForTest()
	slices.Reverse(corpus)
	m := NewMatcher(corpus)
	want := []string{"OpenSSL 1.0.2f", "OpenSSL 1.0.2u", "OpenSSL 1.1.1i", "wolfSSL 3.15.3"}
	names := func(entries []LibraryEntry) []string {
		var out []string
		for _, e := range entries {
			out = append(out, e.Name())
		}
		return out
	}
	first := m.Entries()
	if got := names(first); !slices.Equal(got, want) {
		t.Fatalf("Entries() = %v, want %v", got, want)
	}
	slices.Reverse(first)
	if got := names(m.Entries()); !slices.Equal(got, want) {
		t.Fatalf("after reordering one result, Entries() = %v, want %v", got, want)
	}
}

func TestMatcherSemantics(t *testing.T) {
	m := NewMatcher(corpusForTest())
	// Same set as OpenSSL 1.0.2 but reordered.
	got := m.MatchSemantics([]uint16{0x000A, 0x0035, 0x002F, 0x009C, 0xC014, 0xC013, 0xC030, 0xC02F})
	if got.Category != SameSetDiffOrder {
		t.Fatalf("category %v", got.Category)
	}
	if got.Library.Family != "OpenSSL" {
		t.Fatalf("library %s", got.Library.Name())
	}
	// Nothing like the corpus.
	got = m.MatchSemantics([]uint16{0x001E, 0x0021})
	if got.Category != Customization {
		t.Fatalf("category %v", got.Category)
	}
}

func TestVersionLess(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"1.0.2f", "1.0.2u", true},
		{"1.0.2u", "1.0.2f", false},
		{"1.0.2", "1.0.2u", true},
		{"1.0.2u", "1.1.0", true},
		{"3.9.0", "3.10.2", true},
		{"2.16.4", "2.16.4", false},
		{"7.68.0", "7.7.0", false},
	}
	for _, c := range cases {
		if got := versionLess(c.a, c.b); got != c.want {
			t.Errorf("versionLess(%q,%q)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMatchCategoryString(t *testing.T) {
	want := map[MatchCategory]string{
		ExactCiphersuites: "Exact same",
		SameSetDiffOrder:  "Same set diff order",
		SameComponent:     "Same component",
		SimilarComponent:  "Similar component",
		Customization:     "Customization",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d => %q want %q", c, c.String(), s)
		}
	}
}

// Property: Jaccard is symmetric and bounded in [0,1].
func TestPropertyJaccard(t *testing.T) {
	f := func(a, b []uint16) bool {
		j1 := JaccardUint16(a, b)
		j2 := JaccardUint16(b, a)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Jaccard(a,a) == 1 for non-empty a.
func TestPropertyJaccardIdentity(t *testing.T) {
	f := func(a []uint16) bool {
		return JaccardUint16(a, a) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CategorizeAgainst(x,x) is always ExactCiphersuites and the
// category ordering is monotone under reordering.
func TestPropertyCategorizeSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	all := ciphersuite.All()
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(20)
		ids := make([]uint16, n)
		for i := range ids {
			ids[i] = all[rng.Intn(len(all))].ID
		}
		if got := CategorizeAgainst(ids, ids); got != ExactCiphersuites {
			t.Fatalf("self-categorize %v for %v", got, ids)
		}
		// A permutation is at least SameSetDiffOrder.
		perm := append([]uint16(nil), ids...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if got := CategorizeAgainst(perm, ids); got < SameSetDiffOrder {
			t.Fatalf("permutation categorized %v", got)
		}
	}
}

func BenchmarkKey(b *testing.B) {
	f := fp(tlswire.VersionTLS12,
		[]uint16{0xC02F, 0xC030, 0xC02B, 0xC02C, 0xC013, 0xC014, 0x009C, 0x009D, 0x002F, 0x0035, 0x000A},
		[]uint16{0, 5, 10, 11, 13, 16, 18, 21, 23, 35, 0xFF01})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.Key()
	}
}

func BenchmarkMatchSemantics(b *testing.B) {
	m := NewMatcher(corpusForTest())
	suites := []uint16{0x000A, 0x0035, 0x002F, 0x009C, 0xC014, 0xC013, 0xC030, 0xC02F}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.MatchSemantics(suites)
	}
}
