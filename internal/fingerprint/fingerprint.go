// Package fingerprint implements the TLS client fingerprinting used by the
// study: fingerprints are the 3-tuple {ciphersuites, extension types, TLS
// version} (Section 4.1 — IoT Inspector does not capture full ClientHello
// payloads, so JA3-style field sets are reduced to these three fields).
//
// The package provides the canonical string form, a stable hash, exact
// matching against a known-library corpus, the semantics-aware matcher of
// Appendix B.2 (Exact / SameSetDiffOrder / SameComponent / SimilarComponent
// / Customization), and the Jaccard similarity over ciphersuite lists.
package fingerprint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ciphersuite"
	"repro/internal/tlswire"
)

// Fingerprint is the study's TLS client fingerprint: the exact ciphersuite
// list, extension type list, and proposed TLS version.
type Fingerprint struct {
	Version      tlswire.Version
	CipherSuites []uint16
	Extensions   []uint16
}

// FromClientHello constructs the fingerprint of a parsed ClientHello.
func FromClientHello(ch *tlswire.ClientHello) Fingerprint {
	return Fingerprint{
		Version:      ch.EffectiveVersion(),
		CipherSuites: append([]uint16(nil), ch.CipherSuites...),
		Extensions:   ch.ExtensionTypes(),
	}
}

// FromClientHelloOwned is FromClientHello for callers that own ch and
// will not mutate it afterwards: the fingerprint aliases
// ch.CipherSuites instead of copying it. The parse-once ingestion path
// uses this on hellos it just parsed and immediately discards.
func FromClientHelloOwned(ch *tlswire.ClientHello) Fingerprint {
	return Fingerprint{
		Version:      ch.EffectiveVersion(),
		CipherSuites: ch.CipherSuites,
		Extensions:   ch.ExtensionTypes(),
	}
}

// Key returns the canonical string form used for equality and map keys:
// "version|cs1-cs2-...|ext1-ext2-...". Two ClientHellos have the same Key
// iff they share the study's 3-tuple fingerprint.
//
// Key is on the ingestion hot path (once per ClientHello record and once
// per corpus entry), so it appends hex digits directly instead of going
// through fmt.
func (f Fingerprint) Key() string {
	// Exact length up front, built via strings.Builder so the key costs
	// one allocation (the []byte+string(b) version cost two).
	n := 6
	if len(f.CipherSuites) > 0 {
		n += 5*len(f.CipherSuites) - 1
	}
	if len(f.Extensions) > 0 {
		n += 5*len(f.Extensions) - 1
	}
	var sb strings.Builder
	sb.Grow(n)
	var tmp [4]byte
	writeHex16 := func(v uint16) {
		appendHex16(tmp[:0], v)
		sb.Write(tmp[:])
	}
	writeHex16(uint16(f.Version))
	sb.WriteByte('|')
	for i, cs := range f.CipherSuites {
		if i > 0 {
			sb.WriteByte('-')
		}
		writeHex16(cs)
	}
	sb.WriteByte('|')
	for i, e := range f.Extensions {
		if i > 0 {
			sb.WriteByte('-')
		}
		writeHex16(e)
	}
	return sb.String()
}

const hexDigits = "0123456789abcdef"

// appendHex16 appends the four lowercase hex digits of v (= fmt "%04x").
func appendHex16(b []byte, v uint16) []byte {
	return append(b, hexDigits[v>>12], hexDigits[v>>8&0xF], hexDigits[v>>4&0xF], hexDigits[v&0xF])
}

// Hash returns a short stable hex digest of the fingerprint (12 bytes of
// SHA-256 over the binary tuple), suitable for node labels in graphs.
func (f Fingerprint) Hash() string {
	h := sha256.New()
	var buf [2]byte
	binary.BigEndian.PutUint16(buf[:], uint16(f.Version))
	h.Write(buf[:])
	h.Write([]byte{0})
	for _, cs := range f.CipherSuites {
		binary.BigEndian.PutUint16(buf[:], cs)
		h.Write(buf[:])
	}
	h.Write([]byte{0})
	for _, e := range f.Extensions {
		binary.BigEndian.PutUint16(buf[:], e)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// Level returns the security classification of the fingerprint's proposed
// ciphersuite list.
func (f Fingerprint) Level() ciphersuite.SecurityLevel {
	return ciphersuite.ListLevel(f.CipherSuites)
}

// VulnClasses returns the vulnerable component families present in the
// fingerprint's suites.
func (f Fingerprint) VulnClasses() []ciphersuite.VulnClass {
	return ciphersuite.VulnClasses(f.CipherSuites)
}

// HasGREASESuites reports whether any proposed suite is a GREASE value.
func (f Fingerprint) HasGREASESuites() bool {
	for _, cs := range f.CipherSuites {
		if ciphersuite.IsGREASE(cs) {
			return true
		}
	}
	return false
}

// HasGREASEExtensions reports whether any extension type is a GREASE value.
func (f Fingerprint) HasGREASEExtensions() bool {
	for _, e := range f.Extensions {
		if tlswire.IsGREASEExtension(e) {
			return true
		}
	}
	return false
}

// ProposesFallbackSCSV reports whether TLS_FALLBACK_SCSV is in the list.
func (f Fingerprint) ProposesFallbackSCSV() bool {
	for _, cs := range f.CipherSuites {
		if cs == ciphersuite.SCSVFallback {
			return true
		}
	}
	return false
}

// JaccardUint16 is the Jaccard similarity |A∩B| / |A∪B| of two uint16
// multisets treated as sets. Two empty sets have similarity 1.
//
// The computation is a sorted-merge over two small stack buffers instead
// of per-call maps: it runs in Table 4's O(V²) pair loop and per
// candidate group inside MatchSemantics, where the old map-based version
// dominated the allocation profile.
func JaccardUint16(a, b []uint16) float64 {
	var bufA, bufB [jaccardBuf]uint16
	return jaccardSets(sortedDedup(bufA[:0], a), sortedDedup(bufB[:0], b))
}

// jaccardSets is JaccardUint16 over two sorted, deduplicated lists.
func jaccardSets(a, b []uint16) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// jaccardBuf is sized for real ciphersuite lists (the longest corpus and
// device lists are well under 128 suites); longer inputs spill to the heap.
const jaccardBuf = 128

// sortedDedup copies vs into buf, insertion-sorts it (lists are short),
// and removes duplicates in place.
func sortedDedup(buf []uint16, vs []uint16) []uint16 {
	buf = append(buf, vs...)
	for i := 1; i < len(buf); i++ {
		v := buf[i]
		j := i - 1
		for j >= 0 && buf[j] > v {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = v
	}
	n := 0
	for i, v := range buf {
		if i == 0 || v != buf[i-1] {
			buf[n] = v
			n++
		}
	}
	return buf[:n]
}

// MatchCategory is the semantics-aware matching category of Appendix B.2.
type MatchCategory int

const (
	// Customization: no known library is close enough.
	Customization MatchCategory = iota
	// SimilarComponent: component sets match up to key-length variants.
	SimilarComponent
	// SameComponent: identical kex/cipher/MAC component sets, different
	// suite combinations.
	SameComponent
	// SameSetDiffOrder: identical ciphersuite set, different ordering.
	SameSetDiffOrder
	// ExactCiphersuites: identical ciphersuite list (order included).
	ExactCiphersuites
)

// String names the category as in Table 11.
func (c MatchCategory) String() string {
	switch c {
	case ExactCiphersuites:
		return "Exact same"
	case SameSetDiffOrder:
		return "Same set diff order"
	case SameComponent:
		return "Same component"
	case SimilarComponent:
		return "Similar component"
	case Customization:
		return "Customization"
	default:
		return fmt.Sprintf("MatchCategory(%d)", int(c))
	}
}

// componentMasks is componentSets as bitmasks: one bit per kex, cipher
// and MAC name of the registry, so two lists have equal component sets
// exactly when their masks are equal. ciphersuite.SimilarAlgorithms is
// an equivalence relation (equal names, or one length-insensitive
// family), so every set member has a similar counterpart in the other
// set, setsSimilar's test, exactly when both sets cover the same
// similarity classes: cipherClass and macClass hold one bit per class.
type componentMasks struct {
	kex, cipher, mac      uint64
	cipherClass, macClass uint64
}

// suiteSlot maps every registered suite except the signalling values to
// 1 + its index in suiteMasks, which holds the suite's single-member
// componentMasks; every other codepoint maps to 0. A 64 KiB table keeps
// the per-suite lookup free of hashing.
var suiteSlot, suiteMasks = buildSuiteMasks()

func buildSuiteMasks() (*[1 << 16]uint8, []componentMasks) {
	kex, cipher, mac := bits{}, bits{}, bits{}
	cipherClass, macClass := bits{}, bits{}
	slot := new([1 << 16]uint8)
	masks := []componentMasks{{}}
	for _, s := range ciphersuite.All() {
		if s.IsSCSV() {
			continue
		}
		if len(masks) == 1<<8 {
			panic("fingerprint: more than 255 suites in the ciphersuite registry")
		}
		k, c, m := s.Components()
		slot[s.ID] = uint8(len(masks))
		masks = append(masks, componentMasks{
			kex: kex.of(k), cipher: cipher.of(c), mac: mac.of(m),
			cipherClass: cipherClass.class(c), macClass: macClass.class(m),
		})
	}
	return slot, masks
}

// bits numbers names with one bit each, in order of first sight.
type bits map[string]uint64

func (b bits) of(name string) uint64 {
	v, ok := b[name]
	if !ok {
		if len(b) == 64 {
			panic("fingerprint: more than 64 component names or classes in the ciphersuite registry")
		}
		v = 1 << len(b)
		b[name] = v
	}
	return v
}

// class returns the bit of name's similarity class, which its first
// similar name seen holds. Similarity is an equivalence relation, so at
// most one numbered name is similar to name.
func (b bits) class(name string) uint64 {
	for rep, v := range b {
		if ciphersuite.SimilarAlgorithms(name, rep) {
			return v
		}
	}
	return b.of(name)
}

// componentMasksOf is componentSets over masks: GREASE, signalling and
// unknown codepoints have no slot and add nothing.
func componentMasksOf(ids []uint16) componentMasks {
	var out componentMasks
	for _, id := range ids {
		if i := suiteSlot[id]; i != 0 {
			b := &suiteMasks[i]
			out.kex |= b.kex
			out.cipher |= b.cipher
			out.mac |= b.mac
			out.cipherClass |= b.cipherClass
			out.macClass |= b.macClass
		}
	}
	return out
}

// componentSets extracts the three component sets (kex+auth, cipher, MAC)
// from a ciphersuite list, skipping signalling values, GREASE, and unknown
// codepoints. It and setsEqual/setsSimilar define the categories
// CategorizeAgainst returns; the matcher compares componentMasks instead.
func componentSets(ids []uint16) (kex, cipher, mac map[string]bool) {
	kex = map[string]bool{}
	cipher = map[string]bool{}
	mac = map[string]bool{}
	for _, id := range ids {
		if ciphersuite.IsGREASE(id) {
			continue
		}
		s, ok := ciphersuite.Lookup(id)
		if !ok || s.IsSCSV() {
			continue
		}
		k, c, m := s.Components()
		kex[k] = true
		cipher[c] = true
		mac[m] = true
	}
	return kex, cipher, mac
}

func setsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// setsSimilar reports whether every member of each set has a similar
// counterpart in the other set (per ciphersuite.SimilarAlgorithms).
func setsSimilar(a, b map[string]bool) bool {
	match := func(x string, set map[string]bool) bool {
		for y := range set {
			if ciphersuite.SimilarAlgorithms(x, y) {
				return true
			}
		}
		return false
	}
	for v := range a {
		if !match(v, b) {
			return false
		}
	}
	for v := range b {
		if !match(v, a) {
			return false
		}
	}
	return true
}

// suiteListEqual reports order-sensitive equality.
func suiteListEqual(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// suiteSetEqual reports order-insensitive equality of the suite sets.
func suiteSetEqual(a, b []uint16) bool {
	sa := append([]uint16(nil), a...)
	sb := append([]uint16(nil), b...)
	sort.Slice(sa, func(i, j int) bool { return sa[i] < sa[j] })
	sort.Slice(sb, func(i, j int) bool { return sb[i] < sb[j] })
	sa = dedup(sa)
	sb = dedup(sb)
	return suiteListEqual(sa, sb)
}

func dedup(sorted []uint16) []uint16 {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// CategorizeAgainst classifies the relationship between a device's
// ciphersuite list and one known library's list.
func CategorizeAgainst(device, library []uint16) MatchCategory {
	if suiteListEqual(device, library) {
		return ExactCiphersuites
	}
	if suiteSetEqual(device, library) {
		return SameSetDiffOrder
	}
	dk, dc, dm := componentSets(device)
	lk, lc, lm := componentSets(library)
	if setsEqual(dk, lk) && setsEqual(dc, lc) && setsEqual(dm, lm) {
		return SameComponent
	}
	// Key exchange must match exactly (no length notion); cipher and MAC
	// may differ by key/digest length.
	if setsEqual(dk, lk) && setsSimilar(dc, lc) && setsSimilar(dm, lm) {
		return SimilarComponent
	}
	return Customization
}
