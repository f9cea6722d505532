package analysis

import (
	"sort"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/pki"
	"repro/internal/tlswire"
)

// ExtensionFrequency compares how often an extension appears in device
// fingerprints versus known-library fingerprints (Appendix B.3.3: IoT
// devices include session_ticket and renegotiation_info much more often
// than the stock libraries, and add application-specific extensions like
// ALPN/NPN and padding).
type ExtensionFrequency struct {
	Extension tlswire.ExtensionType
	// DeviceShare is the fraction of device fingerprints carrying it.
	DeviceShare float64
	// CorpusShare is the fraction of known-library fingerprints.
	CorpusShare float64
}

// Delta is DeviceShare - CorpusShare (positive = IoT-favoured).
func (f ExtensionFrequency) Delta() float64 { return f.DeviceShare - f.CorpusShare }

// ExtensionFrequencies computes the comparison over every extension seen
// on either side, sorted by |delta| descending.
func (c *Client) ExtensionFrequencies(matcher *fingerprint.Matcher) []ExtensionFrequency {
	devCount := map[tlswire.ExtensionType]int{}
	for _, key := range c.orderedKeys {
		seen := map[tlswire.ExtensionType]bool{}
		for _, e := range c.Fingerprint(key).Print.Extensions {
			et := tlswire.ExtensionType(e)
			if tlswire.IsGREASEExtension(e) || seen[et] {
				continue
			}
			seen[et] = true
			devCount[et]++
		}
	}
	corpusCount := map[tlswire.ExtensionType]int{}
	corpusPrints := map[string]bool{}
	for _, entry := range matcher.Entries() {
		key := entry.Print.Key()
		if corpusPrints[key] {
			continue
		}
		corpusPrints[key] = true
		seen := map[tlswire.ExtensionType]bool{}
		for _, e := range entry.Print.Extensions {
			et := tlswire.ExtensionType(e)
			if seen[et] {
				continue
			}
			seen[et] = true
			corpusCount[et]++
		}
	}
	all := map[tlswire.ExtensionType]bool{}
	for e := range devCount {
		all[e] = true
	}
	for e := range corpusCount {
		all[e] = true
	}
	out := make([]ExtensionFrequency, 0, len(all))
	for e := range all {
		f := ExtensionFrequency{Extension: e}
		if c.prints.len() > 0 {
			f.DeviceShare = float64(devCount[e]) / float64(c.prints.len())
		}
		if len(corpusPrints) > 0 {
			f.CorpusShare = float64(corpusCount[e]) / float64(len(corpusPrints))
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Delta(), out[j].Delta()
		if di < 0 {
			di = -di
		}
		if dj < 0 {
			dj = -dj
		}
		if di != dj {
			return di > dj
		}
		return out[i].Extension < out[j].Extension
	})
	return out
}

// ReportCards lints every probed server's leaf and grades the vendors
// whose devices depend on it (the hygiene scoreboard the Discussion
// section argues the ecosystem needs).
func (s *Server) ReportCards(now time.Time) []pki.VendorGrade {
	var obs []pki.VendorLeaf
	for _, r := range s.Records {
		vendors := make([]string, 0, len(r.Vendors))
		for v := range r.Vendors {
			vendors = append(vendors, v)
		}
		sort.Strings(vendors)
		for _, v := range vendors {
			obs = append(obs, pki.VendorLeaf{Vendor: v, Leaf: r.Leaf, IssuerPublic: r.IssuerPublic})
		}
	}
	return pki.GradeVendors(obs, now)
}
