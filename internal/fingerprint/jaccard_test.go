package fingerprint

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// jaccardUint16Ref is the seed's map-based implementation, kept verbatim as
// the equivalence oracle for the sorted-merge rewrite.
func jaccardUint16Ref(a, b []uint16) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	sa := map[uint16]bool{}
	for _, v := range a {
		sa[v] = true
	}
	sb := map[uint16]bool{}
	for _, v := range b {
		sb[v] = true
	}
	inter := 0
	for v := range sa {
		if sb[v] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func TestJaccardUint16MatchesReference(t *testing.T) {
	cases := [][2][]uint16{
		{nil, nil},
		{{}, {1}},
		{{1, 2, 3}, {1, 2, 3}},
		{{3, 2, 1}, {1, 2, 3}},
		{{1, 1, 1}, {1}},
		{{0xC030, 0x009D, 0x0035}, {0x0035, 0xFFFF}},
		{{5}, {7}},
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		mk := func() []uint16 {
			n := rng.Intn(200) // exercise both the stack buffer and the spill path
			out := make([]uint16, n)
			for j := range out {
				out[j] = uint16(rng.Intn(64)) // small domain forces collisions/dups
			}
			return out
		}
		cases = append(cases, [2][]uint16{mk(), mk()})
	}
	for _, c := range cases {
		want := jaccardUint16Ref(c[0], c[1])
		got := JaccardUint16(c[0], c[1])
		if got != want {
			t.Fatalf("JaccardUint16(%v, %v) = %v, reference = %v", c[0], c[1], got, want)
		}
	}
}

func TestJaccardUint16DoesNotMutateInputs(t *testing.T) {
	a := []uint16{9, 3, 7, 3}
	b := []uint16{7, 1}
	JaccardUint16(a, b)
	if a[0] != 9 || a[1] != 3 || a[2] != 7 || a[3] != 3 || b[0] != 7 || b[1] != 1 {
		t.Fatalf("inputs mutated: a=%v b=%v", a, b)
	}
}

func TestJaccardUint16ZeroAllocs(t *testing.T) {
	a := []uint16{0xC030, 0xC02C, 0xC028, 0xC024, 0xC014, 0xC00A, 0x009D, 0x0035}
	b := []uint16{0x0035, 0x003D, 0xC030, 0x009C}
	allocs := testing.AllocsPerRun(100, func() { JaccardUint16(a, b) })
	if allocs != 0 {
		t.Fatalf("JaccardUint16 allocated %v times per call, want 0", allocs)
	}
}

// TestMatchSemanticsMemoized checks that memoized lookups agree with the
// uncached matcher body and are safe under concurrent access (run with
// -race in CI).
func TestMatchSemanticsMemoized(t *testing.T) {
	m := testCorpusMatcher()
	lists := [][]uint16{
		{0xC030, 0xC02C, 0x009D},
		{0x009D, 0xC02C, 0xC030}, // same set, different order
		{0xC030},
		{0x1234, 0x5678}, // customization
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, l := range lists {
					got := m.MatchSemantics(l)
					want := m.matchSemanticsUncached(l)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("memoized result %+v != uncached %+v", got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMatchExactPrecomputedBest checks the build-time best-version index
// against a rescan of the raw entry list.
func TestMatchExactPrecomputedBest(t *testing.T) {
	m := testCorpusMatcher()
	for _, e := range m.entries {
		got, ok := m.MatchExact(e.Print)
		if !ok {
			t.Fatalf("entry %s not found by its own print", e.Name())
		}
		// Rescan all entries sharing the key, the seed's way.
		best := LibraryEntry{}
		found := false
		for _, cand := range m.entries {
			if cand.Print.Key() != e.Print.Key() {
				continue
			}
			if !found || versionLess(best.Version, cand.Version) {
				best = cand
				found = true
			}
		}
		if !reflect.DeepEqual(got, best) {
			t.Fatalf("MatchExact(%s) = %s, rescan wants %s", e.Name(), got.Name(), best.Name())
		}
	}
}

func testCorpusMatcher() *Matcher {
	print := func(suites ...uint16) Fingerprint {
		return Fingerprint{Version: 0x0303, CipherSuites: suites, Extensions: []uint16{0, 10, 11}}
	}
	return NewMatcher([]LibraryEntry{
		{Family: "OpenSSL", Version: "1.0.2k", Print: print(0xC030, 0xC02C, 0x009D)},
		{Family: "OpenSSL", Version: "1.0.2u", Print: print(0xC030, 0xC02C, 0x009D)},
		{Family: "OpenSSL", Version: "1.1.1", Print: print(0x1301, 0x1302, 0xC030)},
		{Family: "wolfSSL", Version: "4.4.0", Print: print(0xC02C, 0xC030, 0x009D)},
		{Family: "Mbed TLS", Version: "2.16.3", Print: print(0xC030)},
	})
}
