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

// Table11 runs the semantics-aware matcher over every {device, suites}
// tuple, matching each distinct list once.
func (c *Client) Table11(matcher *fingerprint.Matcher) []Table11Row {
	ix := c.tableIndex()
	type acc struct {
		present  bool
		tuples   int
		vendors  int
		outdated int
	}
	var accs [fingerprint.ExactCiphersuites + 1]acc
	// seen[cat*len(vendors)+v] marks vendor v as counted in cat.
	seen := make([]bool, len(accs)*len(ix.vendors))
	total := 0
	for _, l := range ix.lists {
		// One match per distinct list; the matcher's memo is shared with
		// Figure 8, which matches the same lists.
		m := matcher.MatchSemantics(l.suites)
		a := &accs[m.Category]
		a.present = true
		total += l.devices
		a.tuples += l.devices
		for _, vc := range l.vendors {
			if i := int(m.Category)*len(ix.vendors) + int(vc.v); !seen[i] {
				seen[i] = true
				a.vendors++
			}
		}
		if m.Category != fingerprint.Customization && !m.Library.SupportedIn2020 {
			a.outdated += l.devices
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
		if !a.present {
			rows = append(rows, Table11Row{Category: cat})
			continue
		}
		row := Table11Row{
			Category:     cat,
			Tuples:       a.tuples,
			PercentTotal: float64(a.tuples) / float64(total),
			Vendors:      a.vendors,
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
	for _, l := range c.tableIndex().lists {
		m := matcher.MatchSemantics(l.suites)
		if m.Category != fingerprint.SameComponent && m.Category != fingerprint.SimilarComponent {
			continue
		}
		idx := int(m.Jaccard * float64(buckets))
		if idx >= buckets {
			idx = buckets - 1
		}
		if m.Category == fingerprint.SameComponent {
			out[idx].SameComp += l.devices
		} else {
			out[idx].SimComp += l.devices
		}
	}
	return out
}

// Table12 returns proposal counts per TLS version: every print's records,
// summed by its version.
func (c *Client) Table12() map[tlswire.Version]int {
	out := map[tlswire.Version]int{}
	for _, info := range c.tableIndex().infos {
		out[info.Print.Version] += info.Records
	}
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
	ix := c.tableIndex()
	rows := make([]*Figure9Row, len(ix.vendors))
	for _, l := range ix.lists {
		classes := ciphersuite.VulnClasses(l.suites)
		for _, vc := range l.vendors {
			row := rows[vc.v]
			if row == nil {
				row = &Figure9Row{Vendor: ix.vendors[vc.v], ByClass: map[ciphersuite.VulnClass]int{}}
				rows[vc.v] = row
			}
			row.TupleCount += vc.n
			for _, cl := range classes {
				row.ByClass[cl] += vc.n
			}
		}
	}
	return vendorRows(rows)
}

// vendorRows returns the rows a per-vendor table filled, in vendor
// index order, which is name order.
func vendorRows[R any](rows []*R) []R {
	out := make([]R, 0, len(rows))
	for _, r := range rows {
		if r != nil {
			out = append(out, *r)
		}
	}
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
	ix := c.tableIndex()
	rows := make([]*Figure11Row, len(ix.vendors))
	for _, l := range ix.lists {
		// Skip a leading renegotiation SCSV, as the appendix does.
		effective := l.suites
		if len(effective) > 0 && effective[0] == ciphersuite.SCSVRenegotiation {
			effective = effective[1:]
		}
		idx := ciphersuite.LowestVulnerableIndex(effective)
		for _, vc := range l.vendors {
			row := rows[vc.v]
			if row == nil {
				row = &Figure11Row{Vendor: ix.vendors[vc.v]}
				rows[vc.v] = row
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
	for _, r := range rows {
		if r != nil {
			sort.Ints(r.Indices)
		}
	}
	return vendorRows(rows)
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
	ix := c.tableIndex()
	rows := make([]*Figure12Row, len(ix.vendors))
	for _, l := range ix.lists {
		if len(l.suites) == 0 || l.suites[0] == ciphersuite.SCSVRenegotiation {
			continue
		}
		first, ok := ciphersuite.Lookup(l.suites[0])
		if !ok || first.IsSCSV() {
			continue
		}
		k, ci, m := first.Components()
		for _, vc := range l.vendors {
			row := rows[vc.v]
			if row == nil {
				row = &Figure12Row{
					Vendor: ix.vendors[vc.v],
					Kex:    map[string]int{},
					Cipher: map[string]int{},
					MAC:    map[string]int{},
				}
				rows[vc.v] = row
			}
			row.Kex[k] += vc.n
			row.Cipher[ci] += vc.n
			row.MAC[m] += vc.n
		}
	}
	return vendorRows(rows)
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
	const (
		ocsp = 1 << iota
		greaseSuite
		greaseExt
		scsv
	)
	ix := c.tableIndex()
	flags := make([]uint8, len(ix.devVendor))
	for p, info := range ix.infos {
		var f uint8
		for _, e := range info.Print.Extensions {
			if e == uint16(tlswire.ExtStatusRequest) {
				f |= ocsp
			}
		}
		if info.Print.HasGREASESuites() {
			f |= greaseSuite
		}
		if info.Print.HasGREASEExtensions() {
			f |= greaseExt
		}
		if info.Print.ProposesFallbackSCSV() {
			f |= scsv
		}
		for _, r := range ix.printDevs[p] {
			flags[r] |= f
		}
	}
	// devices[b] and vendors[b] count the devices and vendors with flag
	// bit b; seen[b*len(vendors)+v] marks vendor v as counted for it.
	var devices, vendors [4]int
	seen := make([]bool, 4*len(ix.vendors))
	for r, f := range flags {
		for b := 0; b < 4; b++ {
			if f&(1<<b) == 0 {
				continue
			}
			devices[b]++
			if i := b*len(ix.vendors) + int(ix.devVendor[r]); !seen[i] {
				seen[i] = true
				vendors[b]++
			}
		}
	}
	return ExtensionCensus{
		OCSPDevices: devices[0], OCSPVendors: vendors[0],
		GREASESuiteDevices: devices[1], GREASESuiteVendors: vendors[1],
		GREASEExtDevices: devices[2], GREASEExtVendors: vendors[2],
		FallbackSCSVDevices: devices[3], FallbackSCSVVendors: vendors[3],
	}
}
