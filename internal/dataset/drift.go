package dataset

// Firmware-drift timeline: the paper's capture stops in August 2020, when
// the IoT population proposed no TLS 1.3 at all. Config.AsOf replays the
// same population at a later virtual date: a hash-scheduled fraction of
// devices has taken a firmware update by then, and an update replaces the
// device's TLS cores with a 1.3-era library default from the dated
// modern corpus (libcorpus.Modern). Upgrade schedules are shaped by the
// vendor's security era — browser-grade vendors track releases within a
// couple of years, legacy fleets trail by most of the window — and a
// per-profile straggler share never upgrades at all, producing the
// paper-style long tail of downlevel hellos years after 1.3 shipped.
//
// Everything is a pure function of (Seed, device, vendor profile), so the
// upgraded-device set is monotone in AsOf: a device upgraded at date D is
// upgraded at every later date, and the 1.3-capable fraction never
// decreases as the timeline advances. A zero AsOf is a strict no-op — the
// generator output is byte-identical to a build without this file.

import (
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/intern"
	"repro/internal/libcorpus"
	"repro/internal/tlswire"
)

// Drift window: firmware rebuilt on 1.3-era libraries could first ship
// once wolfSSL 4.5.0 was out (late August 2020); by the end of the
// window every non-straggler device has upgraded.
var (
	driftStart = time.Date(2020, 9, 1, 0, 0, 0, 0, time.UTC)
	driftEnd   = time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
)

// driftProfile shapes a vendor era's upgrade behaviour: what fraction of
// devices never upgrades, and which slice of the drift window the rest
// upgrade within.
type driftProfile struct {
	stragglerPct uint64  // percent of devices that never upgrade
	lo, hi       float64 // upgrade-date band as fractions of the window
}

// driftProfileOf maps a vendor security era onto its upgrade shape. The
// straggler shares average to roughly a third of the population.
func driftProfileOf(p SecurityProfile) driftProfile {
	switch p {
	case ProfileModern:
		return driftProfile{stragglerPct: 15, lo: 0.0, hi: 0.45}
	case ProfileLegacy:
		return driftProfile{stragglerPct: 50, lo: 0.45, hi: 1.0}
	default: // ProfileMixed
		return driftProfile{stragglerPct: 33, lo: 0.2, hi: 0.8}
	}
}

// driftHash is the drift layer's only randomness: FNV-1a over the seed
// and event coordinates, finalized with the murmur3 avalanche so nearby
// inputs decorrelate. It never touches the generator's rand stream.
func driftHash(seed int64, kind, a string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(a))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// upgradeDate returns the date the device's firmware moves to a 1.3-era
// stack, or ok=false for stragglers that never upgrade. Pure in
// (seed, deviceID, profile), monotone by construction.
func upgradeDate(seed int64, deviceID string, profile SecurityProfile) (time.Time, bool) {
	dp := driftProfileOf(profile)
	if driftHash(seed, "fw-straggle", deviceID)%100 < dp.stragglerPct {
		return time.Time{}, false
	}
	frac := float64(driftHash(seed, "fw-date", deviceID)>>11) / float64(uint64(1)<<53)
	span := driftEnd.Sub(driftStart)
	at := dp.lo + frac*(dp.hi-dp.lo)
	return driftStart.Add(time.Duration(at * float64(span))), true
}

// upgradeEntries returns the modern-corpus entries a stack upgraded at
// upAt may rebuild on: those released before upAt, or the first listed
// entry when none was. It also returns how many were released: the
// released sets only grow with upAt, so the count names the set. Each
// upgraded stack picks its entry by a hash of the original stack
// identity, so every device sharing a firmware stack that upgrades on
// the same set converges on the same 1.3 fingerprint (shared ODM builds
// stay shared after the update).
func upgradeEntries(upAt time.Time) (entries []libcorpus.ModernEntry, released int) {
	entries = libcorpus.ModernAsOf(upAt)
	released = len(entries)
	if released == 0 {
		entries = libcorpus.Modern()[:1]
	}
	return entries, released
}

// fwStackPrefix marks upgraded stack identities. The prefix embeds the
// library the firmware rebuilt on, so upgraded records intern fresh
// stack symbols — the (stack, SNI) hello-template cache stays sound
// because a symbol still maps to exactly one set of hello bytes.
const fwStackPrefix = "fw:"

// applyFirmwareDrift re-stamps the records of every device upgraded by
// cfg.AsOf with 1.3-era hello bytes. New templates are appended to the
// shared raw buffer and the record spans repointed; each record keeps
// its original 32-byte client random, and timestamps (and therefore the
// sort order) are untouched. The abandoned spans of upgraded records
// stay in the buffer — at paper scale the waste is a few hundred
// kilobytes, and keeping offsets stable is what makes the pass cheap.
func (ds *Dataset) applyFirmwareDrift(cfg Config) {
	asof := cfg.AsOf
	if asof.IsZero() || !asof.After(driftStart) {
		return
	}
	profiles := map[string]SecurityProfile{}
	for _, v := range Vendors() {
		profiles[v.Name] = v.Profile
	}
	cols := ds.Records.c
	tab := cols.tab
	// One decision per device, one entry-set per upgraded device, one
	// fw-lib hash per original stack and one upgraded stack per
	// (original stack, entry set): a record pays only the lookups.
	type devDecision struct {
		upgraded bool
		entries  []libcorpus.ModernEntry
		released int
	}
	type upgradeKey struct {
		stack    intern.Symbol
		released int
	}
	type upgrade struct {
		sym   intern.Symbol // 0: the stack is already an upgraded one
		print fingerprint.Fingerprint
	}
	decisions := map[intern.Symbol]devDecision{}
	libHash := map[intern.Symbol]uint64{}
	upgrades := map[upgradeKey]upgrade{}
	tmpl := map[tmplKey][]byte{}
	var devicesUpgraded, recordsRestamped int64
	for i := range cols.stack {
		devSym := cols.device[i]
		dec, ok := decisions[devSym]
		if !ok {
			at, up := upgradeDate(cfg.Seed, tab.Str(devSym), profiles[tab.Str(cols.vendor[i])])
			if dec.upgraded = up && !at.After(asof); dec.upgraded {
				dec.entries, dec.released = upgradeEntries(at)
				devicesUpgraded++
			}
			decisions[devSym] = dec
		}
		if !dec.upgraded {
			continue
		}
		key := upgradeKey{stack: cols.stack[i], released: dec.released}
		u, ok := upgrades[key]
		if !ok {
			if origID := tab.Str(key.stack); !strings.HasPrefix(origID, fwStackPrefix) {
				h, ok := libHash[key.stack]
				if !ok {
					h = driftHash(cfg.Seed, "fw-lib", origID)
					libHash[key.stack] = h
				}
				entry := dec.entries[h%uint64(len(dec.entries))]
				u = upgrade{sym: tab.Intern(fwStackPrefix + entry.Name() + ":" + origID), print: entry.Print}
			}
			upgrades[key] = u
		}
		if u.sym == 0 {
			continue
		}
		tk := tmplKey{stack: u.sym, sni: cols.sni[i]}
		t, ok := tmpl[tk]
		if !ok {
			t = buildHelloTemplate13(u.print, tab.Str(cols.sni[i]))
			tmpl[tk] = t
		}
		random := cols.rawSpan(cols.rawOff[i], cols.rawLen[i])[helloRandomOff : helloRandomOff+32]
		off, buf := cols.rawAppend(len(t))
		copy(buf, t)
		copy(buf[helloRandomOff:], random)
		cols.rawOff[i] = off
		cols.rawLen[i] = uint32(len(t))
		cols.stack[i] = u.sym
		recordsRestamped++
	}
	if m := cfg.Metrics; m != nil {
		m.Counter("dataset_drift_upgraded_devices_total").Add(devicesUpgraded)
		m.Counter("dataset_drift_restamped_records_total").Add(recordsRestamped)
	}
}

// driftKeyShareData fills the template's x25519 share with a fixed
// pattern; like the zeroed client random it is a placeholder stamped
// into every template, not per-record entropy.
func driftKeyShareData() []byte {
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(7 + i*13)
	}
	return data
}

// buildHelloTemplate13 marshals a 1.3-capable hello template: the plain
// template skeleton with real supported_versions / supported_groups /
// signature_algorithms / psk_key_exchange_modes / key_share payloads
// filled in place of the type-only markers, so the record negotiates
// TLS 1.3 against the simulated servers and fingerprints as a 1.3
// client. Extension order is the print's order (setExtension replaces
// in place).
func buildHelloTemplate13(print fingerprint.Fingerprint, sni string) []byte {
	ch := helloSkeleton(print, sni)
	ch.SetSupportedVersions([]uint16{
		uint16(tlswire.VersionTLS13), uint16(tlswire.VersionTLS12),
	})
	ch.SetSupportedGroups([]uint16{
		tlswire.GroupX25519, tlswire.GroupP256, tlswire.GroupP384,
	})
	ch.SetSignatureAlgorithms([]uint16{0x0403, 0x0804, 0x0401, 0x0503, 0x0805})
	ch.SetPSKKeyExchangeModes([]byte{1})
	ch.SetKeyShares([]tlswire.KeyShare{{Group: tlswire.GroupX25519, Data: driftKeyShareData()}})
	raw, err := ch.Marshal()
	if err != nil {
		panic("dataset: marshal 1.3 hello: " + err.Error())
	}
	return raw
}

// AdoptionPoint is one row of the adoption curve: the device population
// bucketed by the best TLS version its firmware proposes at Date. The
// three buckets always sum to the full population.
type AdoptionPoint struct {
	Date time.Time
	// TLS13 counts devices upgraded to a 1.3-era stack by Date.
	TLS13 int
	// TLS12 counts un-upgraded devices whose best stack proposes 1.2.
	TLS12 int
	// Legacy counts un-upgraded devices stuck below TLS 1.2.
	Legacy int
}

// Total is the population the point buckets.
func (p AdoptionPoint) Total() int { return p.TLS13 + p.TLS12 + p.Legacy }

// legacyDevice reports whether every stack of the device proposes below
// TLS 1.2 (the pre-drift "legacy" bucket).
func legacyDevice(d *Device) bool {
	for _, s := range d.Stacks {
		if s.Print.Version >= tlswire.VersionTLS12 {
			return false
		}
	}
	return true
}

// AdoptionCurve buckets the device population at each date. Dates are
// evaluated against the same hash schedule the generator materializes,
// so the curve at ds.Config.AsOf matches the generated records exactly,
// and the TLS13 column is nondecreasing over increasing dates.
func (ds *Dataset) AdoptionCurve(dates []time.Time) []AdoptionPoint {
	profiles := map[string]SecurityProfile{}
	for _, v := range Vendors() {
		profiles[v.Name] = v.Profile
	}
	out := make([]AdoptionPoint, 0, len(dates))
	for _, date := range dates {
		pt := AdoptionPoint{Date: date}
		for _, d := range ds.Devices {
			at, ok := upgradeDate(ds.Config.Seed, d.ID, profiles[d.Vendor])
			switch {
			case ok && !at.After(date) && date.After(driftStart):
				pt.TLS13++
			case legacyDevice(d):
				pt.Legacy++
			default:
				pt.TLS12++
			}
		}
		out = append(out, pt)
	}
	return out
}

// TLS13Fraction is the fraction of devices upgraded to a 1.3-era stack
// by asof (0 for the paper window and earlier).
func (ds *Dataset) TLS13Fraction(asof time.Time) float64 {
	if len(ds.Devices) == 0 {
		return 0
	}
	pt := ds.AdoptionCurve([]time.Time{asof})[0]
	return float64(pt.TLS13) / float64(pt.Total())
}

// StragglerRow is one vendor's downgrade-straggler tally: devices that
// will never upgrade off their paper-era stack.
type StragglerRow struct {
	Vendor     string
	Devices    int
	Stragglers int
}

// Fraction is the vendor's straggler share.
func (r StragglerRow) Fraction() float64 {
	if r.Devices == 0 {
		return 0
	}
	return float64(r.Stragglers) / float64(r.Devices)
}

// DowngradeStragglers tallies, per vendor, the devices whose firmware
// never leaves the paper-era stack — the population still proposing
// 1.2-and-below hellos at the end of the timeline. Sorted by straggler
// count descending, then vendor name, for stable report rows.
func (ds *Dataset) DowngradeStragglers() []StragglerRow {
	profiles := map[string]SecurityProfile{}
	for _, v := range Vendors() {
		profiles[v.Name] = v.Profile
	}
	byVendor := map[string]*StragglerRow{}
	var order []string
	for _, d := range ds.Devices {
		row := byVendor[d.Vendor]
		if row == nil {
			row = &StragglerRow{Vendor: d.Vendor}
			byVendor[d.Vendor] = row
			order = append(order, d.Vendor)
		}
		row.Devices++
		if _, ok := upgradeDate(ds.Config.Seed, d.ID, profiles[d.Vendor]); !ok {
			row.Stragglers++
		}
	}
	out := make([]StragglerRow, 0, len(order))
	for _, v := range order {
		out = append(out, *byVendor[v])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stragglers != out[j].Stragglers {
			return out[i].Stragglers > out[j].Stragglers
		}
		return out[i].Vendor < out[j].Vendor
	})
	return out
}
