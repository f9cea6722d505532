// Package ciphersuite provides an IANA TLS ciphersuite registry with
// component decomposition and the security taxonomy used by the IMC'23
// study "Behind the Scenes": every suite is split into its key-exchange/
// authentication algorithm, cipher algorithm, and MAC algorithm, and is
// classified as Optimal, Suboptimal, or Vulnerable.
//
// The taxonomy follows Section 4.2 of the paper:
//
//   - Optimal: equivalent to a modern web browser in terms of security
//     (ECDHE/DHE forward-secret key exchange with an AEAD cipher).
//   - Suboptimal: non-ideal (e.g. non-PFS key exchange, CBC-mode ciphers)
//     but not vulnerable to known attacks.
//   - Vulnerable: anonymous key exchange, export-grade ciphers, NULL
//     encryption, RC2/RC4, DES and 3DES. MD5 and SHA-1 are NOT considered
//     vulnerable as ciphersuite MACs (HMAC constructions), matching the
//     paper's footnote.
package ciphersuite

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// SecurityLevel classifies a ciphersuite per the paper's taxonomy.
type SecurityLevel int

const (
	// Optimal suites match what a modern web browser offers.
	Optimal SecurityLevel = iota
	// Suboptimal suites are non-ideal (non-PFS, CBC) but not broken.
	Suboptimal
	// Vulnerable suites contain a component with known practical attacks.
	Vulnerable
)

// String returns the human-readable level name.
func (l SecurityLevel) String() string {
	switch l {
	case Optimal:
		return "optimal"
	case Suboptimal:
		return "suboptimal"
	case Vulnerable:
		return "vulnerable"
	default:
		return fmt.Sprintf("SecurityLevel(%d)", int(l))
	}
}

// VulnClass identifies the specific vulnerable component family found in a
// suite, mirroring the categories the paper reports (3DES most common, then
// RC4, DES, export-grade, NULL encryption, anonymous key exchange, RC2).
type VulnClass int

const (
	VulnNone VulnClass = iota
	Vuln3DES
	VulnDES
	VulnRC4
	VulnRC2
	VulnNULL
	VulnExport
	VulnAnonKex
	VulnKRB5Export
)

// String returns the short label used in reports (e.g. "3DES", "RC4").
func (v VulnClass) String() string {
	switch v {
	case VulnNone:
		return "-"
	case Vuln3DES:
		return "3DES"
	case VulnDES:
		return "DES"
	case VulnRC4:
		return "RC4"
	case VulnRC2:
		return "RC2"
	case VulnNULL:
		return "NULL"
	case VulnExport:
		return "EXPORT"
	case VulnAnonKex:
		return "ANON"
	case VulnKRB5Export:
		return "KRB5_EXPORT"
	default:
		return fmt.Sprintf("VulnClass(%d)", int(v))
	}
}

// Suite describes one IANA-registered TLS ciphersuite.
type Suite struct {
	// ID is the two-byte IANA codepoint.
	ID uint16
	// Name is the IANA name (TLS_..._WITH_...).
	Name string
	// Kex is the key exchange + authentication component, e.g.
	// "ECDHE_RSA", "RSA", "DH_anon", "KRB5_EXPORT".
	Kex string
	// Cipher is the encryption component, e.g. "AES_128_GCM",
	// "3DES_EDE_CBC", "RC4_128", "NULL".
	Cipher string
	// MAC is the MAC / PRF-hash component, e.g. "SHA256", "SHA", "MD5",
	// or "AEAD" for GCM/CCM/ChaCha suites (the tag is integrated).
	MAC string
	// PFS reports whether the key exchange provides forward secrecy.
	PFS bool
	// AEAD reports whether the cipher is an AEAD construction.
	AEAD bool
	// TLS13 marks TLS 1.3 suites (0x13xx), which name no key exchange.
	TLS13 bool
}

// Level returns the paper's security classification for the suite.
func (s Suite) Level() SecurityLevel {
	if s.VulnClass() != VulnNone {
		return Vulnerable
	}
	if s.TLS13 {
		return Optimal
	}
	if s.PFS && s.AEAD {
		return Optimal
	}
	return Suboptimal
}

// VulnClass returns the vulnerable component family present in the suite,
// or VulnNone. When several apply, key-exchange problems (anon, export)
// dominate cipher problems, matching how the paper attributes fingerprints
// to their most severe component.
func (s Suite) VulnClass() VulnClass {
	switch {
	case strings.Contains(s.Kex, "KRB5_EXPORT"):
		return VulnKRB5Export
	case strings.Contains(s.Kex, "EXPORT") || strings.Contains(s.Cipher, "EXPORT"):
		return VulnExport
	case strings.Contains(s.Kex, "anon"):
		return VulnAnonKex
	case s.Cipher == "NULL":
		return VulnNULL
	case strings.HasPrefix(s.Cipher, "RC2"):
		return VulnRC2
	case strings.HasPrefix(s.Cipher, "RC4"):
		return VulnRC4
	case strings.HasPrefix(s.Cipher, "3DES"):
		return Vuln3DES
	case strings.HasPrefix(s.Cipher, "DES"):
		return VulnDES
	default:
		return VulnNone
	}
}

// Components returns the decomposition used by the semantics-aware
// fingerprint matcher: {kex+auth set member, cipher set member, MAC set
// member}.
func (s Suite) Components() (kex, cipher, mac string) {
	return s.Kex, s.Cipher, s.MAC
}

// IsSCSV reports whether the codepoint is a signalling suite value rather
// than a real ciphersuite (TLS_EMPTY_RENEGOTIATION_INFO_SCSV or
// TLS_FALLBACK_SCSV).
func (s Suite) IsSCSV() bool {
	return s.ID == SCSVRenegotiation || s.ID == SCSVFallback
}

// Signalling suite codepoints.
const (
	SCSVRenegotiation uint16 = 0x00FF
	SCSVFallback      uint16 = 0x5600
)

// IsGREASE reports whether the codepoint is a GREASE value per RFC 8701
// (0xIaIa with Ia in {0A,1A,...,FA}).
func IsGREASE(id uint16) bool {
	hi := byte(id >> 8)
	lo := byte(id)
	return hi == lo && hi&0x0F == 0x0A
}

// registry is keyed by codepoint.
var registry = map[uint16]Suite{}

// byName is keyed by IANA name.
var byName = map[string]Suite{}

// attrSlot maps each registered codepoint to 1 + its index in attrs,
// which holds the suite's VulnClass and Level, computed once at
// registration. The list functions below index the two instead of
// hashing the codepoint and re-running VulnClass's string tests on
// every call; slot 0 is every unregistered codepoint.
var (
	attrSlot [1 << 16]uint8
	attrs    = []suiteAttr{{}}
)

type suiteAttr struct {
	known bool
	vuln  VulnClass
	level SecurityLevel
}

func register(id uint16, name, kex, cipher, mac string, pfs, aead, tls13 bool) {
	s := Suite{ID: id, Name: name, Kex: kex, Cipher: cipher, MAC: mac, PFS: pfs, AEAD: aead, TLS13: tls13}
	registry[id] = s
	byName[name] = s
	if len(attrs) == 1<<8 {
		panic("ciphersuite: more than 255 registered suites")
	}
	attrSlot[id] = uint8(len(attrs))
	attrs = append(attrs, suiteAttr{known: true, vuln: s.VulnClass(), level: s.Level()})
}

// Lookup returns the suite for an IANA codepoint. GREASE values and unknown
// codepoints return a synthesized placeholder with ok=false.
func Lookup(id uint16) (Suite, bool) {
	if s, ok := registry[id]; ok {
		return s, true
	}
	name := fmt.Sprintf("UNKNOWN_0x%04X", id)
	if IsGREASE(id) {
		name = fmt.Sprintf("GREASE_0x%04X", id)
	}
	return Suite{ID: id, Name: name, Kex: "UNKNOWN", Cipher: "UNKNOWN", MAC: "UNKNOWN"}, false
}

// LookupName returns the suite registered under an IANA name.
func LookupName(name string) (Suite, bool) {
	s, ok := byName[name]
	return s, ok
}

// All returns every registered suite sorted by codepoint.
func All() []Suite {
	out := make([]Suite, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ListLevel classifies a whole proposed ciphersuite list: the worst level of
// any member suite (SCSV and GREASE values are ignored).
func ListLevel(ids []uint16) SecurityLevel {
	level := Optimal
	seen := false
	for _, id := range ids {
		a := &attrs[attrSlot[id]]
		if !a.known || id == SCSVRenegotiation || id == SCSVFallback {
			continue
		}
		seen = true
		if a.level > level {
			level = a.level
		}
	}
	if !seen {
		return Suboptimal
	}
	return level
}

// VulnClasses returns the distinct vulnerable component families present in
// a proposed list, sorted by their enum order (severity grouping used in
// reports).
func VulnClasses(ids []uint16) []VulnClass {
	var set uint32
	for _, id := range ids {
		if v := attrs[attrSlot[id]].vuln; v != VulnNone {
			set |= 1 << v
		}
	}
	out := make([]VulnClass, 0, bits.OnesCount32(set))
	for v := VulnClass(0); set != 0; v++ {
		if set&(1<<v) != 0 {
			out = append(out, v)
			set &^= 1 << v
		}
	}
	return out
}

// LowestVulnerableIndex returns the index of the first (most preferred)
// vulnerable suite in the proposed list, or -1 if none is present.
// Signalling values do not advance the index, matching Appendix B.7 where
// lists led by TLS_EMPTY_RENEGOTIATION_INFO_SCSV are handled specially.
func LowestVulnerableIndex(ids []uint16) int {
	for i, id := range ids {
		if a := &attrs[attrSlot[id]]; a.known && a.level == Vulnerable {
			return i
		}
	}
	return -1
}

// SimilarAlgorithms reports whether two cipher or MAC algorithm names are
// "similar" per Appendix B.2: they differ only in key/digest length while
// providing the same construction (AES_128_CBC ~ AES_256_CBC,
// SHA256 ~ SHA384). SHA (SHA-1) is NOT similar to SHA256.
func SimilarAlgorithms(a, b string) bool {
	if a == b {
		return true
	}
	fa, fb := algoFamily(a), algoFamily(b)
	return fa != "" && fa == fb
}

// algoFamily maps an algorithm name to its length-insensitive family, or ""
// when the algorithm has no length-variant family.
func algoFamily(name string) string {
	switch name {
	case "AES_128_CBC", "AES_256_CBC":
		return "AES_CBC"
	case "AES_128_GCM", "AES_256_GCM":
		return "AES_GCM"
	case "AES_128_CCM", "AES_256_CCM", "AES_128_CCM_8":
		return "AES_CCM"
	case "CAMELLIA_128_CBC", "CAMELLIA_256_CBC":
		return "CAMELLIA_CBC"
	case "CAMELLIA_128_GCM", "CAMELLIA_256_GCM":
		return "CAMELLIA_GCM"
	case "ARIA_128_GCM", "ARIA_256_GCM":
		return "ARIA_GCM"
	case "ARIA_128_CBC", "ARIA_256_CBC":
		return "ARIA_CBC"
	case "SHA256", "SHA384", "SHA512":
		return "SHA2"
	default:
		return ""
	}
}
