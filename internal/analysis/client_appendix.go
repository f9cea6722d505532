package analysis

import (
	"sort"

	"repro/internal/ciphersuite"
	"repro/internal/fingerprint"
	"repro/internal/tlswire"
)

// LibMatchResult summarizes the Section 4.1 exact-matching experiment.
type LibMatchResult struct {
	// TotalFingerprints in the dataset.
	TotalFingerprints int
	// MatchedFingerprints had an exact 3-tuple match.
	MatchedFingerprints int
	// MatchedLibraries is the set of distinct library builds matched.
	MatchedLibraries []string
	// UnsupportedLibraries of those were no longer maintained in 2020.
	UnsupportedLibraries int
	// PerFamily counts matched libraries per family.
	PerFamily map[string]int
}

// MatchRate is MatchedFingerprints / TotalFingerprints (the paper: 2.55%).
func (r LibMatchResult) MatchRate() float64 {
	if r.TotalFingerprints == 0 {
		return 0
	}
	return float64(r.MatchedFingerprints) / float64(r.TotalFingerprints)
}

// MatchLibraries runs exact matching of every dataset fingerprint against
// the corpus.
func (c *Client) MatchLibraries(matcher *fingerprint.Matcher) LibMatchResult {
	res := LibMatchResult{
		TotalFingerprints: c.prints.len(),
		PerFamily:         map[string]int{},
	}
	libs := map[string]bool{}
	for _, key := range c.orderedKeys {
		e, ok := matcher.MatchExact(c.Fingerprint(key).Print)
		if !ok {
			continue
		}
		res.MatchedFingerprints++
		if !libs[e.Name()] {
			libs[e.Name()] = true
			res.PerFamily[e.Family]++
			if !e.SupportedIn2020 {
				res.UnsupportedLibraries++
			}
		}
	}
	for name := range libs {
		res.MatchedLibraries = append(res.MatchedLibraries, name)
	}
	sort.Strings(res.MatchedLibraries)
	return res
}

// Table11Row is one row of the semantics-aware matching results.
type Table11Row struct {
	Category fingerprint.MatchCategory
	// Tuples is the number of {device, ciphersuite list} tuples in the
	// category.
	Tuples int
	// PercentTotal of all tuples.
	PercentTotal float64
	// Vendors with at least one tuple in the category.
	Vendors int
	// PercentOutdated of tuples matched to libraries unsupported in 2020
	// (not meaningful for Customization).
	PercentOutdated float64
}

// suiteList is one distinct ciphersuite list and the devices proposing
// it. Each of its devices is one {device, ciphersuite list} tuple,
// Appendix B's unit of analysis (5,827 in the paper): the list stands
// for len(devices) tuples, vendors[i].n of them from vendors[i].vendor.
type suiteList struct {
	suites  []uint16
	devices StringSet
	// vendors is sorted by vendor.
	vendors []vendorCount
}

// vendorCount is how many of a list's devices belong to one vendor.
type vendorCount struct {
	vendor string
	n      int
}

// suiteLists groups the {device, ciphersuite list} tuples by list in
// one pass over the fingerprints. Every Appendix B value depends on the
// list alone, so the tables evaluate it once per list and weight it by
// the vendor counts. A device that reaches one list through several
// prints (same suites, other extensions or version) is still one tuple:
// the prints' device sets are unioned, not concatenated.
func (c *Client) suiteLists() []suiteList {
	byKey := map[string]int{}
	var lists []suiteList
	var key []byte
	for _, k := range c.orderedKeys {
		info := c.Fingerprint(k)
		key = key[:0]
		for _, cs := range info.Print.CipherSuites {
			key = append(key, byte(cs>>8), byte(cs))
		}
		i, ok := byKey[string(key)]
		if !ok {
			i = len(lists)
			byKey[string(key)] = i
			lists = append(lists, suiteList{suites: info.Print.CipherSuites})
		}
		lists[i].devices = unionSets(lists[i].devices, info.Devices)
	}
	var vendors []string
	for i := range lists {
		vendors = vendors[:0]
		for _, dev := range lists[i].devices {
			vendors = append(vendors, c.DeviceVendor(dev))
		}
		sort.Strings(vendors)
		for j := 0; j < len(vendors); {
			k := j + 1
			for k < len(vendors) && vendors[k] == vendors[j] {
				k++
			}
			lists[i].vendors = append(lists[i].vendors, vendorCount{vendors[j], k - j})
			j = k
		}
	}
	return lists
}

// Table11 runs the semantics-aware matcher over every {device, suites}
// tuple, matching each distinct list once.
func (c *Client) Table11(matcher *fingerprint.Matcher) []Table11Row {
	type acc struct {
		tuples   int
		vendors  map[string]bool
		outdated int
	}
	accs := map[fingerprint.MatchCategory]*acc{}
	total := 0
	for _, l := range c.suiteLists() {
		// One match per distinct list; the matcher's memo is shared with
		// Figure 8, which matches the same lists.
		m := matcher.MatchSemantics(l.suites)
		a := accs[m.Category]
		if a == nil {
			a = &acc{vendors: map[string]bool{}}
			accs[m.Category] = a
		}
		n := len(l.devices)
		total += n
		a.tuples += n
		for _, vc := range l.vendors {
			a.vendors[vc.vendor] = true
		}
		if m.Category != fingerprint.Customization && !m.Library.SupportedIn2020 {
			a.outdated += n
		}
	}
	cats := []fingerprint.MatchCategory{
		fingerprint.ExactCiphersuites,
		fingerprint.SameSetDiffOrder,
		fingerprint.SameComponent,
		fingerprint.SimilarComponent,
		fingerprint.Customization,
	}
	rows := make([]Table11Row, 0, len(cats))
	for _, cat := range cats {
		a := accs[cat]
		if a == nil {
			rows = append(rows, Table11Row{Category: cat})
			continue
		}
		row := Table11Row{
			Category:     cat,
			Tuples:       a.tuples,
			PercentTotal: float64(a.tuples) / float64(total),
			Vendors:      len(a.vendors),
		}
		if a.tuples > 0 {
			row.PercentOutdated = float64(a.outdated) / float64(a.tuples)
		}
		rows = append(rows, row)
	}
	return rows
}

// Figure8Bucket is a histogram bucket of Jaccard similarity between a
// device's suites and its closest library.
type Figure8Bucket struct {
	Low, High float64
	SameComp  int
	SimComp   int
}

// Figure8 builds the Jaccard histogram for the SameComponent and
// SimilarComponent categories.
func (c *Client) Figure8(matcher *fingerprint.Matcher, buckets int) []Figure8Bucket {
	if buckets <= 0 {
		buckets = 10
	}
	out := make([]Figure8Bucket, buckets)
	for i := range out {
		out[i].Low = float64(i) / float64(buckets)
		out[i].High = float64(i+1) / float64(buckets)
	}
	for _, l := range c.suiteLists() {
		m := matcher.MatchSemantics(l.suites)
		if m.Category != fingerprint.SameComponent && m.Category != fingerprint.SimilarComponent {
			continue
		}
		idx := int(m.Jaccard * float64(buckets))
		if idx >= buckets {
			idx = buckets - 1
		}
		if m.Category == fingerprint.SameComponent {
			out[idx].SameComp += len(l.devices)
		} else {
			out[idx].SimComp += len(l.devices)
		}
	}
	return out
}

// Table12 returns proposal counts per TLS version.
func (c *Client) Table12() map[tlswire.Version]int {
	out := make(map[tlswire.Version]int, c.versionCounts.len())
	c.versionCounts.each(func(v tlswire.Version, n int) { out[v] = n })
	return out
}

// SSL3Census reports the devices and vendors still proposing SSL 3.0.
func (c *Client) SSL3Census() (devices int, vendors map[string]int) {
	devSet := map[string]bool{}
	vendors = map[string]int{}
	for _, key := range c.orderedKeys {
		info := c.Fingerprint(key)
		if info.Print.Version != tlswire.VersionSSL30 {
			continue
		}
		for _, d := range info.Devices {
			if !devSet[d] {
				devSet[d] = true
				vendors[c.DeviceVendor(d)]++
			}
		}
	}
	return len(devSet), vendors
}

// Figure9Row reports a vendor's vulnerable-component inclusion.
type Figure9Row struct {
	Vendor string
	// TupleCount is the number of {device, suites} tuples for the vendor.
	TupleCount int
	// ByClass counts tuples containing each vulnerable family.
	ByClass map[ciphersuite.VulnClass]int
}

// Figure9 computes vulnerable-component inclusion per vendor.
func (c *Client) Figure9() []Figure9Row {
	rows := map[string]*Figure9Row{}
	for _, l := range c.suiteLists() {
		classes := ciphersuite.VulnClasses(l.suites)
		for _, vc := range l.vendors {
			row := rows[vc.vendor]
			if row == nil {
				row = &Figure9Row{Vendor: vc.vendor, ByClass: map[ciphersuite.VulnClass]int{}}
				rows[vc.vendor] = row
			}
			row.TupleCount += vc.n
			for _, cl := range classes {
				row.ByClass[cl] += vc.n
			}
		}
	}
	out := make([]Figure9Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Vendor < out[j].Vendor })
	return out
}

// Figure11Row is a vendor's lowest-vulnerable-index distribution.
type Figure11Row struct {
	Vendor string
	// Indices holds the lowest vulnerable-suite index of each {device,
	// suites} tuple; -1 entries (no vulnerable suite) are excluded.
	Indices []int
	// Tuples is the total tuple count (including clean ones).
	Tuples int
	// FirstPreferred counts tuples whose MOST preferred suite is
	// vulnerable.
	FirstPreferred int
}

// Figure11 computes the lowest index of vulnerable ciphersuites per
// vendor (Appendix B.7).
func (c *Client) Figure11() []Figure11Row {
	rows := map[string]*Figure11Row{}
	for _, l := range c.suiteLists() {
		// Skip a leading renegotiation SCSV, as the appendix does.
		effective := l.suites
		if len(effective) > 0 && effective[0] == ciphersuite.SCSVRenegotiation {
			effective = effective[1:]
		}
		idx := ciphersuite.LowestVulnerableIndex(effective)
		for _, vc := range l.vendors {
			row := rows[vc.vendor]
			if row == nil {
				row = &Figure11Row{Vendor: vc.vendor}
				rows[vc.vendor] = row
			}
			row.Tuples += vc.n
			if idx < 0 {
				continue
			}
			for i := 0; i < vc.n; i++ {
				row.Indices = append(row.Indices, idx)
			}
			if idx == 0 {
				row.FirstPreferred += vc.n
			}
		}
	}
	out := make([]Figure11Row, 0, len(rows))
	for _, r := range rows {
		sort.Ints(r.Indices)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Vendor < out[j].Vendor })
	return out
}

// Figure12Row decomposes each vendor's most-preferred ciphersuites.
type Figure12Row struct {
	Vendor string
	// Kex, Cipher, MAC tally the usage count of each component algorithm
	// appearing in first position.
	Kex    map[string]int
	Cipher map[string]int
	MAC    map[string]int
}

// Figure12 computes the most-preferred algorithm components per vendor
// (Appendix B.8). Tuples led by the renegotiation SCSV are excluded, as
// in the paper.
func (c *Client) Figure12() []Figure12Row {
	rows := map[string]*Figure12Row{}
	for _, l := range c.suiteLists() {
		if len(l.suites) == 0 || l.suites[0] == ciphersuite.SCSVRenegotiation {
			continue
		}
		first, ok := ciphersuite.Lookup(l.suites[0])
		if !ok || first.IsSCSV() {
			continue
		}
		k, ci, m := first.Components()
		for _, vc := range l.vendors {
			row := rows[vc.vendor]
			if row == nil {
				row = &Figure12Row{
					Vendor: vc.vendor,
					Kex:    map[string]int{},
					Cipher: map[string]int{},
					MAC:    map[string]int{},
				}
				rows[vc.vendor] = row
			}
			row.Kex[k] += vc.n
			row.Cipher[ci] += vc.n
			row.MAC[m] += vc.n
		}
	}
	out := make([]Figure12Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Vendor < out[j].Vendor })
	return out
}

// ExtensionCensus reports device/vendor counts for OCSP status requests,
// GREASE, and TLS_FALLBACK_SCSV (Appendix B.3.1, B.9, B.10).
type ExtensionCensus struct {
	OCSPDevices, OCSPVendors                 int
	GREASESuiteDevices, GREASESuiteVendors   int
	GREASEExtDevices, GREASEExtVendors       int
	FallbackSCSVDevices, FallbackSCSVVendors int
}

// Census computes the extension/feature censuses.
func (c *Client) Census() ExtensionCensus {
	type devFlags struct {
		ocsp, gSuite, gExt, scsv bool
	}
	flags := map[string]*devFlags{}
	get := func(dev string) *devFlags {
		f := flags[dev]
		if f == nil {
			f = &devFlags{}
			flags[dev] = f
		}
		return f
	}
	for _, key := range c.orderedKeys {
		info := c.Fingerprint(key)
		hasOCSP := false
		for _, e := range info.Print.Extensions {
			if e == uint16(tlswire.ExtStatusRequest) {
				hasOCSP = true
			}
		}
		gSuite := info.Print.HasGREASESuites()
		gExt := info.Print.HasGREASEExtensions()
		scsv := info.Print.ProposesFallbackSCSV()
		for _, dev := range info.Devices {
			f := get(dev)
			f.ocsp = f.ocsp || hasOCSP
			f.gSuite = f.gSuite || gSuite
			f.gExt = f.gExt || gExt
			f.scsv = f.scsv || scsv
		}
	}
	var out ExtensionCensus
	vOCSP, vGS, vGE, vSCSV := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	for dev, f := range flags {
		vendor := c.DeviceVendor(dev)
		if f.ocsp {
			out.OCSPDevices++
			vOCSP[vendor] = true
		}
		if f.gSuite {
			out.GREASESuiteDevices++
			vGS[vendor] = true
		}
		if f.gExt {
			out.GREASEExtDevices++
			vGE[vendor] = true
		}
		if f.scsv {
			out.FallbackSCSVDevices++
			vSCSV[vendor] = true
		}
	}
	out.OCSPVendors = len(vOCSP)
	out.GREASESuiteVendors = len(vGS)
	out.GREASEExtVendors = len(vGE)
	out.FallbackSCSVVendors = len(vSCSV)
	return out
}
