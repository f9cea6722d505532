package dataset

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/tlswire"
)

// TestStampHelloMatchesDirect checks that template stamping into the
// columnar raw buffer produces byte-identical records to direct
// marshaling, including rng stream consumption (one 32-byte read per
// record), and that later rounds hit the template cache.
func TestStampHelloMatchesDirect(t *testing.T) {
	prints := []fingerprint.Fingerprint{
		{Version: tlswire.VersionTLS12, CipherSuites: []uint16{0xC030, 0x009D}, Extensions: []uint16{0, 10, 11}},
		{Version: tlswire.VersionTLS13, CipherSuites: []uint16{0x1301, 0x1302}, Extensions: []uint16{0, 43, 51}},
		{Version: tlswire.VersionTLS10, CipherSuites: []uint16{0x0035}},
		{Version: tlswire.VersionSSL30, CipherSuites: []uint16{0x0004, 0x0005}, Extensions: []uint16{10}},
	}
	snis := []string{"", "cloud.example.com", "a.b.example.net"}
	rngA := rand.New(rand.NewSource(99))
	rngB := rand.New(rand.NewSource(99))
	cols := newColumns()
	cache := map[tmplKey][]byte{}
	for round := 0; round < 3; round++ { // later rounds hit the cache
		for i, p := range prints {
			stackID := "stack-" + string(rune('a'+i))
			for _, sni := range snis {
				want := buildHello(p, sni, rngA)
				key := tmplKey{stack: cols.tab.Intern(stackID), sni: cols.tab.Intern(sni)}
				off, n, hit := stampHello(cache, key, p, sni, cols, rngB)
				got := cols.rawSpan(off, n)
				if wantHit := round > 0; hit != wantHit {
					t.Fatalf("round %d print %d sni %q: cache hit = %v, want %v", round, i, sni, hit, wantHit)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d print %d sni %q: stamped record differs\n got %x\nwant %x", round, i, sni, got, want)
				}
			}
		}
	}
}

// TestGenerateRecordsUseTemplateCache confirms generation is still
// deterministic and that every record parses back to its stack SNI.
func TestGenerateRecordsUseTemplateCache(t *testing.T) {
	a := Generate(Config{Seed: 5, Scale: 0.3})
	b := Generate(Config{Seed: 5, Scale: 0.3})
	if a.Records.Len() != b.Records.Len() {
		t.Fatalf("record counts differ: %d vs %d", a.Records.Len(), b.Records.Len())
	}
	for i := 0; i < a.Records.Len(); i++ {
		if !bytes.Equal(a.Records.Raw(i), b.Records.Raw(i)) {
			t.Fatalf("record %d raw bytes differ between identical runs", i)
		}
	}
	for i, r := range a.Records.Rows() {
		ch, err := r.Hello()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got := ch.SNI(); got != r.SNI {
			t.Fatalf("record %d: parsed SNI %q, record says %q", i, got, r.SNI)
		}
	}
}
