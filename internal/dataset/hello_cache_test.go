package dataset

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/tlswire"
)

// buildHello marshals a hello record directly, drawing its client
// random from rng: the reference the stamp pipeline must reproduce.
func buildHello(print fingerprint.Fingerprint, sni string, rng *rand.Rand) []byte {
	raw := buildHelloTemplate(print, sni)
	rng.Read(raw[helloRandomOff : helloRandomOff+32])
	return raw
}

// TestStampHelloMatchesDirect checks that the plan/stamp pipeline
// produces byte-identical records to direct marshaling, consumes the
// rng exactly as direct marshaling does (one 32-byte read per record),
// marshals once per (stack, SNI) pair, and lays the records out in time
// order. The records span several blocks, so every
// recycled block is refilled at least once.
func TestStampHelloMatchesDirect(t *testing.T) {
	prints := []fingerprint.Fingerprint{
		{Version: tlswire.VersionTLS12, CipherSuites: []uint16{0xC030, 0x009D}, Extensions: []uint16{0, 10, 11}},
		{Version: tlswire.VersionTLS13, CipherSuites: []uint16{0x1301, 0x1302}, Extensions: []uint16{0, 43, 51}},
		{Version: tlswire.VersionTLS10, CipherSuites: []uint16{0x0035}},
		{Version: tlswire.VersionSSL30, CipherSuites: []uint16{0x0004, 0x0005}, Extensions: []uint16{10}},
	}
	snis := []string{"", "cloud.example.com", "a.b.example.net"}
	perRound := len(prints) * len(snis)
	rounds := (stampBlocks+1)*stampBlockSize/perRound + 1
	rngA := rand.New(rand.NewSource(99))
	rngB := rand.New(rand.NewSource(99))
	cols := newColumns()
	stamper := newHelloStamper(cols)
	var want [][]byte
	for round := 0; round < rounds; round++ {
		for i, p := range prints {
			stack := &Stack{ID: "stack-" + string(rune('a'+i)), Print: p}
			for _, sni := range snis {
				want = append(want, buildHello(p, sni, rngA))
				// Times run backwards, so the sort reverses the records.
				r := planRow{stack: cols.tab.Intern(stack.ID), sni: cols.tab.Intern(sni), timeNS: -int64(len(want))}
				stamper.add(r, stack, sni, rngB)
			}
		}
	}
	stamper.finish()
	if got, want := stamper.misses, int64(perRound); got != want {
		t.Errorf("hellos marshaled = %d, want %d", got, want)
	}
	if got, want := stamper.hits, int64(len(want)-perRound); got != want {
		t.Errorf("template hits = %d, want %d", got, want)
	}
	if cols.len() != len(want) {
		t.Fatalf("%d records laid out, want %d", cols.len(), len(want))
	}
	for k := 0; k < cols.len(); k++ {
		i := len(want) - 1 - k
		if got := cols.rawSpan(cols.rawOff[k], cols.rawLen[k]); !bytes.Equal(got, want[i]) {
			t.Fatalf("record %d: stamped bytes differ\n got %x\nwant %x", i, got, want[i])
		}
		if got, want := cols.timeNS[k], -int64(i+1); got != want {
			t.Fatalf("sorted record %d: time %d, want %d", k, got, want)
		}
	}
	if a, b := rngA.Int63(), rngB.Int63(); a != b {
		t.Errorf("rng streams diverged after stamping: %d vs %d", a, b)
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
