package fingerprint

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/tlswire"
)

// keyTestHello is a TLS 1.3-shaped hello with GREASE, a session ID and
// an SNI: every field the key walk must read or skip.
func keyTestHello() *tlswire.ClientHello {
	ch := &tlswire.ClientHello{
		LegacyVersion:      tlswire.VersionTLS12,
		SessionID:          bytes.Repeat([]byte{0x5A}, 32),
		CipherSuites:       []uint16{0x0A0A, 0x1301, 0x1302, 0xC02F, 0x009C},
		CompressionMethods: []byte{0},
		Extensions:         []tlswire.Extension{{Type: 0x1A1A}, {Type: tlswire.ExtSessionTicket}},
	}
	ch.SetSNI("device.vendor.example")
	ch.SetSupportedVersions([]uint16{0x2A2A, uint16(tlswire.VersionTLS13), uint16(tlswire.VersionTLS12)})
	ch.SetSupportedGroups([]uint16{tlswire.GroupX25519, tlswire.GroupP256})
	return ch
}

// TestBinaryKeyMatchesKey checks the binary key against Key(): the two
// partition fingerprints identically, including at the boundary between
// suites and extensions, and FromBinaryKey inverts AppendBinaryKey.
func TestBinaryKeyMatchesKey(t *testing.T) {
	prints := []Fingerprint{
		fp(tlswire.VersionTLS12, []uint16{1, 2}, nil),
		fp(tlswire.VersionTLS12, []uint16{1}, []uint16{2}),
		fp(tlswire.VersionTLS12, nil, []uint16{1, 2}),
		fp(tlswire.VersionTLS13, []uint16{1, 2}, nil),
		fp(tlswire.VersionTLS12, []uint16{2, 1}, nil),
		fp(tlswire.VersionTLS12, []uint16{0xC02F, 0x009C}, []uint16{0, 10, 11}),
	}
	for i, a := range prints {
		ka := a.AppendBinaryKey(nil)
		if back := FromBinaryKey(ka); back.Key() != a.Key() {
			t.Fatalf("FromBinaryKey(AppendBinaryKey(%s)) = %s", a.Key(), back.Key())
		}
		for _, b := range prints[i+1:] {
			if bytes.Equal(ka, b.AppendBinaryKey(nil)) != (a.Key() == b.Key()) {
				t.Fatalf("binary keys and Key() disagree on %s vs %s", a.Key(), b.Key())
			}
		}
	}
}

// TestAppendRecordKeyZeroAllocs pins that reading a record's key into a
// buffer with room allocates nothing.
func TestAppendRecordKeyZeroAllocs(t *testing.T) {
	rec, err := keyTestHello().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := AppendRecordKey(buf[:0], rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendRecordKey allocated %v times per call, want 0", allocs)
	}
}

// FuzzRecordKey is the differential target for the key walk:
// AppendRecordKey must reject exactly the records tlswire.ParseRecord
// rejects, with the same error and leaving its buffer as it was, and
// otherwise append the binary key of FromClientHello over the parsed
// hello. The checked-in corpus holds a paper-era and an AsOf-2025
// TLS 1.3 record from the generator, a 32-byte session ID, a record cut
// inside each length field, and two supported_versions extensions.
func FuzzRecordKey(f *testing.F) {
	rec, err := keyTestHello().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	f.Add(rec[:len(rec)-3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, rec []byte) {
		prefix := []byte{0xEE}
		got, err := AppendRecordKey(prefix, rec)
		ch, perr := tlswire.ParseRecord(rec)
		if (err == nil) != (perr == nil) || (err != nil && !errors.Is(err, perr)) {
			t.Fatalf("key walk error %v, ParseRecord error %v", err, perr)
		}
		if err != nil {
			if !bytes.Equal(got, prefix) {
				t.Fatalf("failed walk changed its buffer to %x", got)
			}
			return
		}
		want := FromClientHello(ch).AppendBinaryKey(prefix)
		if !bytes.Equal(got, want) {
			t.Fatalf("key walk %x, ParseRecord + FromClientHello %x", got, want)
		}
	})
}

// TestMatchExactStoresNothing pins that exact lookups leave no trace in
// the matcher: 10,000 distinct queries leave the exact index at its
// corpus size, and one query allocates nothing.
func TestMatchExactStoresNothing(t *testing.T) {
	m := testCorpusMatcher()
	before := len(m.byKey)
	for i := 0; i < 10000; i++ {
		q := fp(tlswire.VersionTLS12, []uint16{uint16(i), 0xC030}, []uint16{0, uint16(i >> 8)})
		if _, ok := m.MatchExact(q); ok {
			t.Fatalf("query %d matched", i)
		}
	}
	if len(m.byKey) != before {
		t.Fatalf("exact index grew from %d to %d entries", before, len(m.byKey))
	}
	q := m.entries[0].Print
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := m.MatchExact(q); !ok {
			t.Fatal("corpus print did not match")
		}
	})
	if allocs != 0 {
		t.Fatalf("MatchExact allocated %v times per call, want 0", allocs)
	}
}

// TestMatchSemanticsMemoBounded pins the memo's cap: after cap+1
// distinct suite lists the memo holds exactly cap, the first list keeps
// its entry and still answers from it, and the list past the cap is
// computed without being stored.
func TestMatchSemanticsMemoBounded(t *testing.T) {
	m := testCorpusMatcher()
	list := func(i int) []uint16 { return []uint16{uint16(i), uint16(i >> 16), 0xC030} }
	for i := 0; i <= semMemoCap; i++ {
		m.MatchSemantics(list(i))
	}
	if len(m.semMemo) != semMemoCap {
		t.Fatalf("memo holds %d lists after %d distinct queries, want the cap %d", len(m.semMemo), semMemoCap+1, semMemoCap)
	}
	first := suiteListKey(list(0))
	memoized, ok := m.semMemo[first]
	if !ok {
		t.Fatal("the first list lost its memo entry")
	}
	memoized.Jaccard = -1 // a result only the memo can return
	m.semMemo[first] = memoized
	if got := m.MatchSemantics(list(0)); got.Jaccard != -1 {
		t.Fatalf("first list answered %+v, not from the memo", got)
	}
	last := list(semMemoCap)
	if _, ok := m.semMemo[suiteListKey(last)]; ok {
		t.Fatal("the list past the cap was memoized")
	}
	if got, want := m.MatchSemantics(last), m.matchSemanticsUncached(last); !reflect.DeepEqual(got, want) {
		t.Fatalf("list past the cap: %+v, uncached %+v", got, want)
	}
}

// TestMatchSemanticsMemoHitZeroAllocs: a memo hit builds its key in a
// stack buffer and looks it up without converting it, so it allocates
// nothing. Every snapshot render pays one hit per distinct list for
// Table 11 and another for Figure 8.
func TestMatchSemanticsMemoHitZeroAllocs(t *testing.T) {
	m := testCorpusMatcher()
	for _, suites := range [][]uint16{
		{0xC030, 0xC02C, 0x009D, 0x0035},
		{0x1234, 0x5678}, // customization
	} {
		want := m.MatchSemantics(suites) // the miss memoizes the list
		var got SemanticsMatch
		if allocs := testing.AllocsPerRun(100, func() { got = m.MatchSemantics(suites) }); allocs != 0 {
			t.Fatalf("memo hit for %04x allocated %v times per call, want 0", suites, allocs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("memo hit for %04x = %+v, want %+v", suites, got, want)
		}
	}
}
