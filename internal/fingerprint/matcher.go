package fingerprint

import (
	"sort"
	"sync"

	"repro/internal/intern"
	"repro/internal/tlswire"
)

// LibraryEntry is one known TLS library build in the matching corpus:
// a library family + version and the fingerprint its default client emits.
type LibraryEntry struct {
	// Family is the library family ("OpenSSL", "wolfSSL", "Mbed TLS",
	// "curl+OpenSSL", "curl+wolfSSL").
	Family string
	// Version is the human version string ("1.0.2u", "7.68.0/1.1.1i").
	Version string
	// Print is the fingerprint emitted by the library's default client.
	Print Fingerprint
	// ReleaseYear of the version, for "outdated" reporting.
	ReleaseYear int
	// SupportedIn2020 reports whether the version still received updates
	// at the end of the study's capture window.
	SupportedIn2020 bool
}

// Name returns "Family Version".
func (e LibraryEntry) Name() string { return e.Family + " " + e.Version }

// Matcher indexes a corpus of known-library fingerprints for exact and
// semantics-aware lookups. All lookup methods are safe for concurrent use:
// the indices are immutable after NewMatcher and the semantic-match memo
// is guarded by a lock, so one Matcher can be shared by every table of a
// study rendered in parallel.
type Matcher struct {
	// entries is the corpus sorted by family then version (Entries
	// order), sorted once at build time.
	entries []LibraryEntry
	// byInternedBest resolves the highest-version entry per distinct
	// fingerprint at build time, so MatchExact is a single map hit
	// instead of a version scan per call. It is keyed by the print
	// interned into arena: MatchExact interns the query's suite and
	// extension lists (alloc-free once warm) instead of building the
	// 2-alloc Key() string per call. Interned identity and Key()
	// identity partition fingerprints identically — both encode the
	// exact (version, suites, extensions) tuple.
	arena          *intern.Arena
	byInternedBest map[Interned]LibraryEntry

	// Semantic index: the corpus collapses to few distinct ciphersuite
	// lists (curl builds only vary extensions), so the B.2 matcher scans
	// suite-list groups instead of every entry.
	groups       []*suiteGroup
	byOrderedKey map[string]*suiteGroup
	bySortedKey  map[string][]*suiteGroup

	// semMu/semMemo memoize MatchSemantics by device suite-list key: the
	// component-set scan runs once per distinct list and every table
	// (Table 11, Figure 8, ...) shares the result.
	semMu   sync.RWMutex
	semMemo map[string]SemanticsMatch

	// extOnce/extCounts/extPrints hold the corpus side of the Appendix
	// B.3.3 extension comparison, counted on first use (ExtensionCounts).
	extOnce   sync.Once
	extCounts map[tlswire.ExtensionType]int
	extPrints int
}

// suiteGroup is one distinct corpus ciphersuite list with its component
// masks and the highest-version entry proposing it.
type suiteGroup struct {
	suites []uint16
	// set is suites sorted and deduplicated.
	set  []uint16
	comp componentMasks
	best LibraryEntry
}

// NewMatcher builds a matcher over the given corpus.
func NewMatcher(entries []LibraryEntry) *Matcher {
	m := &Matcher{
		arena:          intern.NewArena(),
		byInternedBest: make(map[Interned]LibraryEntry, len(entries)),
		byOrderedKey:   map[string]*suiteGroup{},
		bySortedKey:    map[string][]*suiteGroup{},
		semMemo:        map[string]SemanticsMatch{},
	}
	for _, e := range entries {
		in := e.Print.Intern(m.arena)
		if best, ok := m.byInternedBest[in]; !ok || versionLess(best.Version, e.Version) {
			m.byInternedBest[in] = e
		}

		okey := suiteListKey(e.Print.CipherSuites)
		g, ok := m.byOrderedKey[okey]
		if !ok {
			g = &suiteGroup{
				suites: e.Print.CipherSuites,
				set:    sortedDedup(nil, e.Print.CipherSuites),
				comp:   componentMasksOf(e.Print.CipherSuites),
				best:   e,
			}
			m.byOrderedKey[okey] = g
			m.groups = append(m.groups, g)
			skey := suiteListKey(g.set)
			m.bySortedKey[skey] = append(m.bySortedKey[skey], g)
		} else if versionLess(g.best.Version, e.Version) {
			g.best = e
		}
	}
	// The indices above are built in input order, which settles version
	// ties; the matcher keeps the corpus in Entries order instead, so
	// the sort runs once per matcher and Entries only copies.
	m.entries = append([]LibraryEntry(nil), entries...)
	sort.Slice(m.entries, func(i, j int) bool {
		if m.entries[i].Family != m.entries[j].Family {
			return m.entries[i].Family < m.entries[j].Family
		}
		return versionLess(m.entries[i].Version, m.entries[j].Version)
	})
	return m
}

// suiteListKey is a fast binary key over a suite list.
func suiteListKey(ids []uint16) string {
	return string(appendSuiteKey(make([]byte, 0, 2*len(ids)), ids))
}

// appendSuiteKey appends the suiteListKey bytes of ids to b.
func appendSuiteKey(b []byte, ids []uint16) []byte {
	for _, id := range ids {
		b = append(b, byte(id>>8), byte(id))
	}
	return b
}

// CorpusSize returns the number of library entries indexed.
func (m *Matcher) CorpusSize() int { return len(m.entries) }

// DistinctFingerprints returns how many distinct fingerprints the corpus
// contains (consecutive library versions often share a fingerprint).
func (m *Matcher) DistinctFingerprints() int { return len(m.byInternedBest) }

// MatchExact returns the known library matching the fingerprint exactly on
// the 3-tuple, if any. When several versions share the fingerprint, the
// highest version is returned, mirroring Section 4.1 ("if OpenSSL versions
// i through j share fingerprint F we report version j"). The winning
// version per key is resolved once at NewMatcher time.
func (m *Matcher) MatchExact(f Fingerprint) (LibraryEntry, bool) {
	best, ok := m.byInternedBest[f.Intern(m.arena)]
	return best, ok
}

// SemanticsMatch is the result of the semantics-aware matcher: the best
// category achieved across the corpus and the closest library under that
// category (ties broken by ciphersuite Jaccard similarity, then version,
// then the corpus list first proposed by an entry).
type SemanticsMatch struct {
	Category MatchCategory
	Library  LibraryEntry
	// Jaccard is the ciphersuite-set similarity to the chosen library.
	Jaccard float64
}

// MatchSemantics runs the Appendix B.2 matcher: it classifies the device
// ciphersuite list against the corpus and returns the best category found.
// A result with Category == Customization has no meaningful Library.
//
// Results are memoized per distinct suite list (thread-safe), so the
// expensive component-set scan happens once per list no matter how many
// tables replay the corpus.
func (m *Matcher) MatchSemantics(deviceSuites []uint16) SemanticsMatch {
	memoKey := suiteListKey(deviceSuites)
	m.semMu.RLock()
	cached, ok := m.semMemo[memoKey]
	m.semMu.RUnlock()
	if ok {
		return cached
	}
	res := m.matchSemanticsUncached(deviceSuites)
	m.semMu.Lock()
	m.semMemo[memoKey] = res
	m.semMu.Unlock()
	return res
}

// matchSemanticsUncached is the memo-free matcher body.
func (m *Matcher) matchSemanticsUncached(deviceSuites []uint16) SemanticsMatch {
	var keyBuf [2 * jaccardBuf]byte
	// Exact list match: direct lookup.
	key := appendSuiteKey(keyBuf[:0], deviceSuites)
	if g, ok := m.byOrderedKey[string(key)]; ok {
		return SemanticsMatch{
			Category: ExactCiphersuites,
			Library:  g.best,
			Jaccard:  JaccardUint16(deviceSuites, g.suites),
		}
	}
	// Same set, different order: sorted-key lookup. The sorted set also
	// serves every Jaccard below.
	var sortBuf [jaccardBuf]uint16
	set := sortedDedup(sortBuf[:0], deviceSuites)
	key = appendSuiteKey(keyBuf[:0], set)
	if gs, ok := m.bySortedKey[string(key)]; ok {
		best := gs[0]
		for _, g := range gs[1:] {
			if versionLess(best.best.Version, g.best.Version) {
				best = g
			}
		}
		return SemanticsMatch{
			Category: SameSetDiffOrder,
			Library:  best.best,
			Jaccard:  jaccardSets(set, best.set),
		}
	}
	// Component comparisons against the distinct suite-list groups, on
	// masks: equal masks are equal sets, and equal class masks are
	// similar sets (see componentMasks).
	d := componentMasksOf(deviceSuites)
	best := SemanticsMatch{Category: Customization}
	for _, g := range m.groups {
		if d.kex != g.comp.kex {
			continue
		}
		var cat MatchCategory
		switch {
		case d.cipher == g.comp.cipher && d.mac == g.comp.mac:
			cat = SameComponent
		case d.cipherClass == g.comp.cipherClass && d.macClass == g.comp.macClass:
			cat = SimilarComponent
		default:
			continue
		}
		if cat < best.Category {
			continue
		}
		j := jaccardSets(set, g.set)
		if cat > best.Category || j > best.Jaccard ||
			(j == best.Jaccard && versionLess(best.Library.Version, g.best.Version)) {
			best = SemanticsMatch{Category: cat, Library: g.best, Jaccard: j}
		}
	}
	return best
}

// ExtensionCounts returns how many distinct corpus fingerprints carry
// each extension type, and how many distinct corpus fingerprints there
// are: the library side of the Appendix B.3.3 comparison. It is counted
// once per Matcher; the map is shared and must not be modified.
func (m *Matcher) ExtensionCounts() (map[tlswire.ExtensionType]int, int) {
	m.extOnce.Do(func() {
		m.extCounts = map[tlswire.ExtensionType]int{}
		m.extPrints = len(m.byInternedBest)
		seen := map[tlswire.ExtensionType]int{}
		i := 0
		for _, e := range m.byInternedBest {
			i++
			for _, ext := range e.Print.Extensions {
				et := tlswire.ExtensionType(ext)
				if seen[et] != i {
					seen[et] = i
					m.extCounts[et]++
				}
			}
		}
	})
	return m.extCounts, m.extPrints
}

// Entries returns the corpus sorted by family then version, as a fresh
// top-level slice the caller may reorder or append to.
func (m *Matcher) Entries() []LibraryEntry {
	return append([]LibraryEntry(nil), m.entries...)
}

// versionLess compares dotted version strings numerically where possible,
// falling back to lexicographic comparison for suffixes ("1.0.2u" etc.).
func versionLess(a, b string) bool {
	for {
		da, ra := versionToken(a)
		db, rb := versionToken(b)
		if da != db {
			return da < db
		}
		if ra == "" || rb == "" {
			return len(ra) < len(rb) || (len(ra) == len(rb) && ra < rb)
		}
		if ra[0] != rb[0] && (ra[0] == '.' || rb[0] == '.') {
			return ra < rb
		}
		// Skip one separator/letter and continue.
		if ra[0] == rb[0] {
			a, b = ra[1:], rb[1:]
			continue
		}
		return ra < rb
	}
}

// versionToken splits the leading integer off a version string.
func versionToken(s string) (int, string) {
	n := 0
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		n = n*10 + int(s[i]-'0')
		i++
	}
	return n, s[i:]
}
