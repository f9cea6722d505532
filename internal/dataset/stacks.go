package dataset

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/ciphersuite"
	"repro/internal/fingerprint"
	"repro/internal/intern"
	"repro/internal/libcorpus"
	"repro/internal/tlswire"
)

// Stack is one TLS client instance a device may use: a firmware core
// stack, a device-type/application stack, a per-device customization, or a
// shared third-party SDK stack.
type Stack struct {
	// ID is a stable identifier ("core:Amazon:0", "sdk:netflix").
	ID string
	// Print is the fingerprint the stack emits.
	Print fingerprint.Fingerprint
	// SDK names the shared SDK when the stack is a third-party one.
	SDK string
	// SNIs restricts which servers the stack talks to (SDK stacks are
	// server-tied, Section 4.4); empty means the vendor's own pool.
	SNIs []string

	// sym and sniSyms hold ID's and SNIs' symbols in the generating
	// table, each interned at its first use (see Generate).
	sym     intern.Symbol
	sniSyms []intern.Symbol
}

// symbol returns the ID's symbol, interning it at first use.
func (s *Stack) symbol(tab *intern.Table) intern.Symbol {
	if s.sym == 0 {
		s.sym = tab.Intern(s.ID)
	}
	return s.sym
}

// sniPool returns the stack's SNIs with their symbols.
func (s *Stack) sniPool() symPool {
	if s.sniSyms == nil {
		s.sniSyms = make([]intern.Symbol, len(s.SNIs))
	}
	return symPool{strs: s.SNIs, syms: s.sniSyms}
}

// basePool returns library prints for a security profile era. All pool
// prints propose at most TLS 1.2 — the paper observed no TLS 1.3 at all.
// The pools are built once per process and shared: callers index into
// them and deep-copy (mutatePrint, awfulPrint, clonePrint) before
// changing a print, so the returned slice and its prints are read-only.
func basePool(profile SecurityProfile) []fingerprint.Fingerprint {
	return basePools()[profile]
}

// basePools builds every profile's pool from one pass over the corpus.
var basePools = sync.OnceValue(func() [ProfileLegacy + 1][]fingerprint.Fingerprint {
	find := func(entries []fingerprint.LibraryEntry, version string) fingerprint.Fingerprint {
		for _, e := range entries {
			if e.Version == version {
				return e.Print
			}
		}
		panic("dataset: missing corpus version " + version)
	}
	ossl, wolf, mbed := libcorpus.OpenSSL(), libcorpus.WolfSSL(), libcorpus.MbedTLS()
	var pools [ProfileLegacy + 1][]fingerprint.Fingerprint
	pools[ProfileLegacy] = []fingerprint.Fingerprint{
		find(ossl, "1.0.0q"),
		find(ossl, "1.0.1h"),
		find(mbed, "1.1.4"),
		find(mbed, "1.2.5"),
		find(wolf, "2.5.0"),
		find(wolf, "3.4.0"),
	}
	pools[ProfileMixed] = []fingerprint.Fingerprint{
		find(ossl, "1.0.1u"),
		find(ossl, "1.0.2"),
		find(ossl, "1.0.2f"),
		find(ossl, "1.0.2m"),
		find(mbed, "1.3.16"),
		find(mbed, "2.1.10"),
		find(wolf, "3.10.3"),
	}
	pools[ProfileModern] = []fingerprint.Fingerprint{
		find(ossl, "1.1.0l"),
		find(mbed, "2.16.4"),
		find(wolf, "3.15.3-stable"),
	}
	return pools
})

// registeredSuites is the codepoint-sorted suite registry mutatePrint
// splices foreign suites from, built once: ciphersuite.All collects,
// sorts and copies the whole registry on every call. Read-only.
var registeredSuites = sync.OnceValue(ciphersuite.All)

// clonePrint deep-copies a fingerprint.
func clonePrint(f fingerprint.Fingerprint) fingerprint.Fingerprint {
	return fingerprint.Fingerprint{
		Version:      f.Version,
		CipherSuites: append([]uint16(nil), f.CipherSuites...),
		Extensions:   append([]uint16(nil), f.Extensions...),
	}
}

// mutatePrint applies a vendor/application customization: drop 1..3
// suites, sometimes remove a whole cipher family or splice in foreign
// suites (build-time cipher config), swap a pair, and toggle an optional
// extension. The result is (almost surely) distinct from every corpus
// print, modelling the "customization" phenomenon that dominates the
// dataset; family removals and injections push the semantics-aware
// matcher toward SimilarComponent/Customization (Table 11's shape).
func mutatePrint(f fingerprint.Fingerprint, rng *rand.Rand) fingerprint.Fingerprint {
	out := clonePrint(f)
	// Drop suites (never the whole list).
	drops := 1 + rng.Intn(3)
	for d := 0; d < drops && len(out.CipherSuites) > 4; d++ {
		i := rng.Intn(len(out.CipherSuites))
		out.CipherSuites = append(out.CipherSuites[:i], out.CipherSuites[i+1:]...)
	}
	// Remove a whole cipher family half the time (vendors compile out
	// Camellia/SEED/DSS etc. wholesale).
	if rng.Intn(2) == 0 && len(out.CipherSuites) > 6 {
		pivot := out.CipherSuites[rng.Intn(len(out.CipherSuites))]
		if s, ok := ciphersuite.Lookup(pivot); ok && !s.IsSCSV() {
			kept := make([]uint16, 0, len(out.CipherSuites))
			for _, id := range out.CipherSuites {
				if o, ok := ciphersuite.Lookup(id); ok && o.Cipher == s.Cipher {
					continue
				}
				kept = append(kept, id)
			}
			if len(kept) >= 4 {
				out.CipherSuites = kept
			}
		}
	}
	// Splice in foreign suites a third of the time (side-loaded crypto
	// configs), which usually breaks component-set equality entirely.
	if rng.Intn(3) == 0 {
		all := registeredSuites()
		for k := 0; k < 1+rng.Intn(2); k++ {
			s := all[rng.Intn(len(all))]
			if s.IsSCSV() || indexOf(out.CipherSuites, s.ID) >= 0 {
				continue
			}
			pos := rng.Intn(len(out.CipherSuites) + 1)
			out.CipherSuites = append(out.CipherSuites[:pos],
				append([]uint16{s.ID}, out.CipherSuites[pos:]...)...)
		}
	}
	// Swap a pair half the time (ordering is part of the fingerprint).
	if rng.Intn(2) == 0 && len(out.CipherSuites) > 2 {
		i := rng.Intn(len(out.CipherSuites) - 1)
		out.CipherSuites[i], out.CipherSuites[i+1] = out.CipherSuites[i+1], out.CipherSuites[i]
	}
	// Toggle an optional extension.
	optional := []uint16{
		uint16(tlswire.ExtALPN),
		uint16(tlswire.ExtPadding),
		uint16(tlswire.ExtStatusRequest),
		uint16(tlswire.ExtSessionTicket),
		uint16(tlswire.ExtNextProtoNeg),
		uint16(tlswire.ExtExtendedMasterSecret),
	}
	ext := optional[rng.Intn(len(optional))]
	if i := indexOf(out.Extensions, ext); i >= 0 {
		out.Extensions = append(out.Extensions[:i], out.Extensions[i+1:]...)
	} else {
		out.Extensions = append(out.Extensions, ext)
	}
	return out
}

func indexOf(s []uint16, v uint16) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// chromiumPrint models the Chromium-derived stacks of Android-based
// devices (Google, Amazon Fire OS, Android TV): TLS 1.2 with GREASE in
// both suites and extensions. Seat is a small per-build variation.
func chromiumPrint(seat int) fingerprint.Fingerprint {
	suites := []uint16{
		0x0A0A, // GREASE
		0xC02B, 0xC02F, 0xC02C, 0xC030, 0xCCA9, 0xCCA8, 0xC013, 0xC014,
		0x009C, 0x009D, 0x002F, 0x0035,
	}
	if seat%2 == 1 {
		suites = append(suites, 0x000A) // older builds keep 3DES last
	}
	exts := []uint16{
		0x1A1A, // GREASE
		uint16(tlswire.ExtRenegotiationInfo),
		uint16(tlswire.ExtServerName),
		uint16(tlswire.ExtExtendedMasterSecret),
		uint16(tlswire.ExtSessionTicket),
		uint16(tlswire.ExtSignatureAlgorithms),
		uint16(tlswire.ExtStatusRequest),
		uint16(tlswire.ExtSignedCertTimestamp),
		uint16(tlswire.ExtALPN),
		uint16(tlswire.ExtECPointFormats),
		uint16(tlswire.ExtSupportedGroups),
		0x2A2A, // trailing GREASE
	}
	if seat%3 == 0 {
		exts = append(exts, uint16(tlswire.ExtPadding))
	}
	return fingerprint.Fingerprint{Version: tlswire.VersionTLS12, CipherSuites: suites, Extensions: exts}
}

// awfulPrint builds the anonymous/export/NULL-bearing lists observed from
// 14 vendors (Section 4.2 footnote). Synology additionally proposes
// KRB5_EXPORT and is the only vendor with DH_anon most-preferred.
func awfulPrint(base fingerprint.Fingerprint, vendor string, rng *rand.Rand) fingerprint.Fingerprint {
	out := clonePrint(base)
	awful := []uint16{
		0x0034, // DH_anon AES_128 CBC
		0x001B, // DH_anon 3DES
		0x0019, // DH_anon EXPORT DES40
		0x0002, // RSA NULL SHA
		0x0006, // RSA EXPORT RC2
	}
	if vendor == "Synology" {
		awful = append(awful, 0x0026, 0x002A, 0x0029) // KRB5_EXPORT
		// Synology proposes DH_anon / KRB5_EXPORT first (Appendix B.8).
		out.CipherSuites = append(awful, out.CipherSuites...)
		return out
	}
	// Other vendors bury the junk mid-list.
	k := 1 + rng.Intn(3)
	pos := len(out.CipherSuites) / 2
	tail := append([]uint16(nil), out.CipherSuites[pos:]...)
	out.CipherSuites = append(append(out.CipherSuites[:pos], awful[:k]...), tail...)
	return out
}

// rc4FirstPrint forces an RC4 suite into the most-preferred slot (Belkin,
// Appendix B.8).
func rc4FirstPrint(base fingerprint.Fingerprint) fingerprint.Fingerprint {
	out := clonePrint(base)
	out.CipherSuites = append([]uint16{0x0005}, removeOne(out.CipherSuites, 0x0005)...)
	return out
}

func removeOne(s []uint16, v uint16) []uint16 {
	out := make([]uint16, 0, len(s))
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// ssl3Print is the tiny SSL 3.0 hello some legacy devices still emit.
func ssl3Print() fingerprint.Fingerprint {
	return fingerprint.Fingerprint{
		Version:      tlswire.VersionSSL30,
		CipherSuites: []uint16{0x0035, 0x002F, 0x000A, 0x0005, 0x0004, 0x00FF},
		Extensions:   nil,
	}
}

// sdkSpec describes a shared third-party SDK stack: its fingerprint
// recipe and the servers it exclusively talks to.
type sdkSpec struct {
	name string
	// slds it owns: SNIs are generated from these (sld, fqdn count) specs.
	slds []SLDSpec
	// fqdnOffset shifts FQDN generation so two SDKs sharing an SLD own
	// disjoint server sets (the paper's two roku.com fingerprint rows).
	fqdnOffset int
	// vulnerable marks SDKs whose suite lists carry RC4/3DES (Table 5's
	// mgo-images/ravm/roku rows).
	vulnClass string // "", "3des", "rc-3des"
	seat      int
}

// sdkSpecs is the registry of shared SDKs, mirroring Table 5.
var sdkSpecs = []sdkSpec{
	{name: "netflix", slds: []SLDSpec{{"nflxvideo.net", 5}, {"netflix.com", 8}, {"nflxext.com", 2}}, seat: 1},
	{name: "sonos", slds: []SLDSpec{{"sonos.com", 5}}, seat: 2},
	{name: "pandora", slds: []SLDSpec{{"pandora.com", 1}}, seat: 3},
	{name: "spotify", slds: []SLDSpec{{"spotify.com", 4}, {"scdn.co", 6}}, seat: 4},
	{name: "roku-platform", slds: []SLDSpec{{"roku.com", 8}, {"mgo.com", 2}}, seat: 5},
	{name: "roku-platform-legacy", slds: []SLDSpec{{"roku.com", 6}}, fqdnOffset: 8, vulnClass: "3des", seat: 6},
	{name: "mgo", slds: []SLDSpec{{"mgo-images.com", 2}, {"ravm.tv", 1}}, vulnClass: "rc-3des", seat: 7},
	{name: "arlo", slds: []SLDSpec{{"arlo.com", 2}, {"netgear.com", 1}}, seat: 8},
	{name: "hdhomerun", slds: []SLDSpec{{"hdhomerun.com", 2}}, seat: 9},
	{name: "cast4audio", slds: []SLDSpec{{"cast4.audio", 1}}, vulnClass: "3des", seat: 10},
	{name: "googleapis-shared", slds: []SLDSpec{{"googleapis.com", 1}}, seat: 11},
}

// buildSDKStacks constructs the SDK stack registry with server-tied SNIs.
func buildSDKStacks(rng *rand.Rand) map[string]*Stack {
	out := map[string]*Stack{}
	poolMixed := basePool(ProfileMixed)
	poolModern := basePool(ProfileModern)
	for _, spec := range sdkSpecs {
		var print fingerprint.Fingerprint
		switch spec.vulnClass {
		case "rc-3des":
			base := clonePrint(poolMixed[spec.seat%len(poolMixed)])
			base.CipherSuites = append(base.CipherSuites, 0x0005, 0x0004) // RC4
			print = mutatePrint(base, rng)
			print.CipherSuites = ensureContains(print.CipherSuites, 0x0005, 0x000A)
		case "3des":
			base := clonePrint(poolMixed[spec.seat%len(poolMixed)])
			print = mutatePrint(base, rng)
			print.CipherSuites = ensureContains(print.CipherSuites, 0x000A)
			print.CipherSuites = removeOne(removeOne(print.CipherSuites, 0x0005), 0x0004)
		default:
			base := clonePrint(poolModern[spec.seat%len(poolModern)])
			print = mutatePrint(base, rng)
			// Clean SDKs carry no vulnerable suites.
			for _, v := range []uint16{0x000A, 0x0005, 0x0004, 0xC012, 0xC008, 0x0016, 0x0013, 0x0039} {
				print.CipherSuites = removeOne(print.CipherSuites, v)
			}
			print.CipherSuites = stripVulnerable(print.CipherSuites)
		}
		var snis []string
		for _, sld := range spec.slds {
			wide := SLDSpec{Name: sld.Name, FQDNs: sld.FQDNs + spec.fqdnOffset}
			snis = append(snis, FQDNsOf(wide)[spec.fqdnOffset:]...)
		}
		out[spec.name] = &Stack{
			ID:    "sdk:" + spec.name,
			Print: print,
			SDK:   spec.name,
			SNIs:  snis,
		}
	}
	return out
}

func stripVulnerable(ids []uint16) []uint16 {
	out := make([]uint16, 0, len(ids))
	for _, id := range ids {
		s, ok := ciphersuite.Lookup(id)
		if ok && s.Level() == ciphersuite.Vulnerable {
			continue
		}
		out = append(out, id)
	}
	return out
}

func ensureContains(ids []uint16, want ...uint16) []uint16 {
	for _, w := range want {
		if indexOf(ids, w) < 0 {
			ids = append(ids, w)
		}
	}
	return ids
}

// fqdnPrefixes name the hosts generated under each SLD.
var fqdnPrefixes = []string{
	"api", "ota", "cloud", "time", "log", "metrics", "device", "cdn",
	"events", "app", "auth", "sync", "data", "push", "img", "static",
	"config", "telemetry", "ws", "mqtt", "updates", "portal", "gateway",
	"edge", "ingest", "control", "registry", "relay", "beacon", "appboot",
	"discovery", "provision", "heartbeat", "status", "upload", "media",
	"stream", "play", "license", "drm", "ads", "search", "voice", "nlu",
	"assets", "fw", "dl", "s1", "s2", "s3", "us-east", "us-west", "eu",
	"ap", "cn", "a1", "a2", "b1", "b2", "c1",
}

// FQDNsOf deterministically generates the FQDN list for an SLD spec.
func FQDNsOf(sld SLDSpec) []string {
	out := make([]string, 0, sld.FQDNs)
	for i := 0; i < sld.FQDNs; i++ {
		prefix := fqdnPrefixes[i%len(fqdnPrefixes)]
		if i >= len(fqdnPrefixes) {
			prefix = fmt.Sprintf("%s%d", prefix, i/len(fqdnPrefixes))
		}
		out = append(out, prefix+"."+sld.Name)
	}
	return out
}
