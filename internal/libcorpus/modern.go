package libcorpus

// Post-capture-window library evolution: the 1.3-era defaults of
// OpenSSL 1.1.1 (already in the appendix corpus), OpenSSL 3.x, and
// wolfSSL 4.x/5.x, as dated models for the firmware-drift timeline. The
// paper's corpus stops at the August 2020 capture window, so these
// entries live outside Build() — the 6,891-entry corpus size is
// load-bearing for the Table 10 reproduction — and are layered in only
// when an analysis runs at a post-paper `asof` date (NewMatcherAsOf).

import (
	"sync"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/tlswire"
)

// ModernEntry is a dated corpus entry: a library default fingerprint
// plus the release date firmware built on it could first ship.
type ModernEntry struct {
	fingerprint.LibraryEntry
	// Released is when the version shipped; a drift timeline only admits
	// entries released before its asof date.
	Released time.Time
}

var (
	modernOnce   sync.Once
	modernCorpus []ModernEntry
)

// Modern returns the dated post-2020 evolution entries, grouped by
// library family and oldest first within a family — not oldest first
// overall: wolfSSL 5.6.3 (2023) precedes OpenSSL 3.0.0 (2021), so the
// entries released by a date are no prefix of the list. Callers may
// reorder the returned slice; the entries are shared and immutable.
func Modern() []ModernEntry {
	modernOnce.Do(func() { modernCorpus = buildModern() })
	return append([]ModernEntry(nil), modernCorpus...)
}

// ModernAsOf returns the modern entries released strictly before asof
// (all of them when asof is zero — a zero asof means "no timeline", and
// callers in that regime never consult the modern corpus anyway).
func ModernAsOf(asof time.Time) []ModernEntry {
	all := Modern()
	if asof.IsZero() {
		return all
	}
	out := make([]ModernEntry, 0, len(all))
	for _, e := range all {
		if e.Released.Before(asof) {
			out = append(out, e)
		}
	}
	return out
}

// NewMatcherAsOf builds a matcher over the paper corpus plus every
// modern entry released before asof, so library matching keeps up with
// firmware drift. A zero asof reproduces NewMatcher exactly.
func NewMatcherAsOf(asof time.Time) *fingerprint.Matcher {
	entries := Build()
	if !asof.IsZero() {
		for _, e := range ModernAsOf(asof) {
			entries = append(entries, e.LibraryEntry)
		}
	}
	return fingerprint.NewMatcher(entries)
}

// date is a terse UTC date literal for the release table.
func date(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

// buildModern constructs the dated 1.3-era entries.
func buildModern() []ModernEntry {
	entry := func(family, version string, year int, released time.Time, print fingerprint.Fingerprint) ModernEntry {
		return ModernEntry{
			LibraryEntry: fingerprint.LibraryEntry{
				Family:      family,
				Version:     version,
				ReleaseYear: year,
				Print:       print,
			},
			Released: released,
		}
	}
	return []ModernEntry{
		// wolfSSL 4.5+ enabled TLS 1.3 in the default embedded build.
		entry("wolfSSL", "4.5.0", 2020, date(2020, 8, 24), wolfSSL13Print(false)),
		entry("wolfSSL", "5.0.0", 2021, date(2021, 11, 1), wolfSSL13Print(true)),
		entry("wolfSSL", "5.6.3", 2023, date(2023, 6, 15), wolfSSL13Print(true)),
		// OpenSSL 3.x: the 1.1.1 suite order with the legacy CBC tail
		// trimmed at the default security level, SCT advertised.
		entry("OpenSSL", "3.0.0", 2021, date(2021, 9, 7), openSSL3Print(false)),
		entry("OpenSSL", "3.0.8", 2023, date(2023, 2, 7), openSSL3Print(false)),
		entry("OpenSSL", "3.2.0", 2023, date(2023, 11, 23), openSSL3Print(true)),
	}
}

// openSSL3Print models the OpenSSL 3.x default client hello. The 3.2
// variant drops the TLS 1.1-era CBC tail entirely.
func openSSL3Print(v32 bool) fingerprint.Fingerprint {
	suites := []uint16{
		0x1302, 0x1303, 0x1301, 0xC02C, 0xC030, 0xCCA9, 0xCCA8,
		0xC02B, 0xC02F, 0x009F, 0x009E, 0xC024, 0xC028, 0xC023,
		0xC027, 0xC00A, 0xC014, 0xC009, 0xC013, 0x009D, 0x009C,
		0x003D, 0x003C, 0x0035, 0x002F, 0x00FF,
	}
	if v32 {
		suites = removeSuites(suites, 0xC024, 0xC028, 0xC023, 0xC027,
			0xC00A, 0xC014, 0xC009, 0xC013, 0x003D, 0x003C, 0x0035, 0x002F)
	}
	return fingerprint.Fingerprint{
		Version:      tlswire.VersionTLS13,
		CipherSuites: suites,
		Extensions: []uint16{
			uint16(tlswire.ExtServerName),
			uint16(tlswire.ExtSupportedGroups),
			uint16(tlswire.ExtECPointFormats),
			uint16(tlswire.ExtSessionTicket),
			uint16(tlswire.ExtRenegotiationInfo),
			uint16(tlswire.ExtSignatureAlgorithms),
			uint16(tlswire.ExtStatusRequest),
			uint16(tlswire.ExtSignedCertTimestamp),
			uint16(tlswire.ExtEncryptThenMAC),
			uint16(tlswire.ExtExtendedMasterSecret),
			uint16(tlswire.ExtSupportedVersions),
			uint16(tlswire.ExtPSKKeyExchangeModes),
			uint16(tlswire.ExtKeyShare),
		},
	}
}

// wolfSSL13Print models the 1.3-era wolfSSL default hello: a lean
// AES-GCM-first suite list (ChaCha only from 5.x) and the minimal 1.3
// extension block an embedded client sends.
func wolfSSL13Print(v5 bool) fingerprint.Fingerprint {
	suites := []uint16{
		0x1301, 0x1302, 0xC02B, 0xC02F, 0xC02C, 0xC030,
		0x009C, 0x009D, 0x002F, 0x0035,
	}
	if v5 {
		suites = append([]uint16{0x1301, 0x1302, 0x1303}, suites[2:]...)
	}
	return fingerprint.Fingerprint{
		Version:      tlswire.VersionTLS13,
		CipherSuites: suites,
		Extensions: []uint16{
			uint16(tlswire.ExtServerName),
			uint16(tlswire.ExtSupportedGroups),
			uint16(tlswire.ExtSignatureAlgorithms),
			uint16(tlswire.ExtSupportedVersions),
			uint16(tlswire.ExtPSKKeyExchangeModes),
			uint16(tlswire.ExtKeyShare),
		},
	}
}
