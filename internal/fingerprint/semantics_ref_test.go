package fingerprint_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/ciphersuite"
	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/libcorpus"
)

// refGroup is one distinct corpus suite list and the newest entry
// proposing it: the first such entry in corpus order on a version tie.
type refGroup struct {
	suites []uint16
	best   fingerprint.LibraryEntry
}

// refGroups groups a corpus by suite list in corpus order.
func refGroups(entries []fingerprint.LibraryEntry) []refGroup {
	var groups []refGroup
	for _, e := range entries {
		i := slices.IndexFunc(groups, func(g refGroup) bool { return slices.Equal(g.suites, e.Print.CipherSuites) })
		switch {
		case i < 0:
			groups = append(groups, refGroup{suites: e.Print.CipherSuites, best: e})
		case fingerprint.VersionLess(groups[i].best.Version, e.Version):
			groups[i].best = e
		}
	}
	return groups
}

// refMatch is MatchSemantics by brute force over the documented rule:
// the best CategorizeAgainst over the distinct corpus lists; among the
// lists in that category, the highest Jaccard similarity, then the
// newest version, then the first list in corpus order.
func refMatch(groups []refGroup, device []uint16) fingerprint.SemanticsMatch {
	best := fingerprint.SemanticsMatch{Category: fingerprint.Customization}
	for _, g := range groups {
		cat := fingerprint.CategorizeAgainst(device, g.suites)
		if cat == fingerprint.Customization || cat < best.Category {
			continue
		}
		j := fingerprint.JaccardUint16(device, g.suites)
		if cat > best.Category || j > best.Jaccard ||
			(j == best.Jaccard && fingerprint.VersionLess(best.Library.Version, g.best.Version)) {
			best = fingerprint.SemanticsMatch{Category: cat, Library: g.best, Jaccard: j}
		}
	}
	return best
}

// sameMatch reports whether two results agree, Jaccard to the bit.
func sameMatch(got, want fingerprint.SemanticsMatch) bool {
	return got.Category == want.Category && reflect.DeepEqual(got.Library, want.Library) &&
		math.Float64bits(got.Jaccard) == math.Float64bits(want.Jaccard)
}

// clientLists returns the distinct suite lists of a generated study.
func clientLists(t *testing.T, cfg dataset.Config) [][]uint16 {
	t.Helper()
	c, err := analysis.NewClientWorkers(dataset.Generate(cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	var lists [][]uint16
	seen := map[string]bool{}
	for _, key := range c.FingerprintKeys() {
		suites := c.Fingerprint(key).Print.CipherSuites
		k := string(suiteBytes(suites))
		if !seen[k] {
			seen[k] = true
			lists = append(lists, suites)
		}
	}
	return lists
}

func suiteBytes(ids []uint16) []byte {
	b := make([]byte, 2*len(ids))
	for i, id := range ids {
		binary.BigEndian.PutUint16(b[2*i:], id)
	}
	return b
}

// perturb derives n lists from each base list by one seeded edit each:
// drop, add or replace a registered suite, or add a GREASE value, a
// signalling value or an unregistered codepoint.
func perturb(bases [][]uint16, n int, seed int64) [][]uint16 {
	rng := rand.New(rand.NewSource(seed))
	registry := ciphersuite.All()
	unknown := func() uint16 {
		for {
			id := uint16(rng.Intn(1 << 16))
			if _, ok := ciphersuite.Lookup(id); !ok && !ciphersuite.IsGREASE(id) {
				return id
			}
		}
	}
	var out [][]uint16
	for _, base := range bases {
		for i := 0; i < n; i++ {
			l := slices.Clone(base)
			at := 0
			if len(l) > 0 {
				at = rng.Intn(len(l))
			}
			suite := registry[rng.Intn(len(registry))].ID
			switch rng.Intn(6) {
			case 0:
				if len(l) > 0 {
					l = slices.Delete(l, at, at+1)
				}
			case 1:
				l = slices.Insert(l, at, suite)
			case 2:
				if len(l) > 0 {
					l[at] = suite
				}
			case 3:
				g := uint16(rng.Intn(16))<<4 | 0x0A
				l = slices.Insert(l, at, g<<8|g)
			case 4:
				l = slices.Insert(l, at, []uint16{ciphersuite.SCSVRenegotiation, ciphersuite.SCSVFallback}[rng.Intn(2)])
			case 5:
				l = slices.Insert(l, at, unknown())
			}
			out = append(out, l)
		}
	}
	return out
}

// TestMatchSemanticsMatchesCategorize checks the mask-based matcher
// against refMatch on every distinct suite list of three generated
// studies and of a drifted one, against the paper corpus and the
// 2025-08-01 corpus, and on seeded one-edit perturbations of the corpus
// and study lists. Every category must occur.
func TestMatchSemanticsMatchesCategorize(t *testing.T) {
	asof := time.Date(2025, 8, 1, 0, 0, 0, 0, time.UTC)
	paper := libcorpus.Build()
	drifted := slices.Clone(paper)
	for _, e := range libcorpus.ModernAsOf(asof) {
		drifted = append(drifted, e.LibraryEntry)
	}
	var studies [][]uint16
	for _, seed := range []int64{1, 4242, 20231024} {
		studies = append(studies, clientLists(t, dataset.Config{Seed: seed, Scale: 1})...)
	}
	studies = append(studies, clientLists(t, dataset.Config{Seed: 20231024, Scale: 1, AsOf: asof})...)
	perturbed := 2
	if testing.Short() {
		studies, perturbed = studies[:len(studies)/4], 1
	}
	seen := map[fingerprint.MatchCategory]int{}
	for ci, corpus := range [][]fingerprint.LibraryEntry{paper, drifted} {
		m := fingerprint.NewMatcher(corpus)
		groups := refGroups(corpus)
		var corpusLists [][]uint16
		for _, g := range groups {
			corpusLists = append(corpusLists, g.suites)
		}
		lists := append(slices.Clone(studies), corpusLists...)
		lists = append(lists, perturb(corpusLists, 40, int64(ci))...)
		lists = append(lists, perturb(studies, perturbed, int64(ci)+10)...)
		for _, l := range lists {
			got, want := m.MatchSemantics(l), refMatch(groups, l)
			if !sameMatch(got, want) {
				t.Fatalf("corpus %d, list %04x:\n got %v %s %v\nwant %v %s %v", ci, l,
					got.Category, got.Library.Name(), got.Jaccard, want.Category, want.Library.Name(), want.Jaccard)
			}
			seen[got.Category]++
		}
	}
	for cat := fingerprint.Customization; cat <= fingerprint.ExactCiphersuites; cat++ {
		if seen[cat] == 0 {
			t.Errorf("no list fell in category %v: %v", cat, seen)
		}
	}
}

var fuzzCorpus struct {
	once   sync.Once
	m      *fingerprint.Matcher
	groups []refGroup
}

// FuzzMatchSemantics checks MatchSemantics against refMatch over the
// paper corpus on arbitrary suite lists, read as big-endian codepoints.
func FuzzMatchSemantics(f *testing.F) {
	for _, e := range libcorpus.Build()[:3] {
		f.Add(suiteBytes(e.Print.CipherSuites))
	}
	f.Add([]byte{})
	f.Add([]byte{0x0a, 0x0a, 0xc0, 0x2f, 0x00, 0xff, 0x56, 0x00, 0xfe, 0xfe})
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzCorpus.once.Do(func() {
			entries := libcorpus.Build()
			fuzzCorpus.m = fingerprint.NewMatcher(entries)
			fuzzCorpus.groups = refGroups(entries)
		})
		l := make([]uint16, len(b)/2)
		for i := range l {
			l[i] = binary.BigEndian.Uint16(b[2*i:])
		}
		got, want := fuzzCorpus.m.MatchSemantics(l), refMatch(fuzzCorpus.groups, l)
		if !sameMatch(got, want) {
			t.Fatalf("list %04x:\n got %v %s %v\nwant %v %s %v", l,
				got.Category, got.Library.Name(), got.Jaccard, want.Category, want.Library.Name(), want.Jaccard)
		}
	})
}
