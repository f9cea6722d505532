package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/ciphersuite"
	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/libcorpus"
	"repro/internal/simnet"
	"repro/internal/tlswire"
)

// This file keeps test-only references for the client tables. The
// references read the definitions directly over the string-keyed state:
// the Appendix B tables walk each {device, ciphersuite list} tuple,
// DoC_device builds one device-fingerprint graph per vendor, DoC_vendor
// and Tables 2 and 4 read the Figure 1 graph, and Tables 3 and 5,
// VulnStats and Census count in string-keyed maps. The production code
// reads the Client's integer index (tableIndex); the tests below
// require the same rows and the same bits.

// refDeviceSuiteTuples enumerates the distinct {device, ciphersuite list}
// tuples (Appendix B's 5,827 unit of analysis).
func (c *Client) refDeviceSuiteTuples() map[string][]uint16 {
	out := map[string][]uint16{}
	for _, key := range c.orderedKeys {
		info := c.Fingerprint(key)
		suiteKey := ""
		for _, cs := range info.Print.CipherSuites {
			suiteKey += string(rune('A'+(cs>>12))) + string(rune('a'+(cs>>8&0xF))) +
				string(rune('a'+(cs>>4&0xF))) + string(rune('a'+(cs&0xF)))
		}
		for _, dev := range info.Devices {
			out[dev+"|"+suiteKey] = info.Print.CipherSuites
		}
	}
	return out
}

// refTable11 runs the semantics-aware matcher over every {device, suites}
// tuple.
func (c *Client) refTable11(matcher *fingerprint.Matcher) []Table11Row {
	type acc struct {
		tuples   int
		vendors  map[string]bool
		outdated int
	}
	accs := map[fingerprint.MatchCategory]*acc{}
	tuples := c.refDeviceSuiteTuples()
	total := len(tuples)
	for id, suites := range tuples {
		var dev string
		for i := 0; i < len(id); i++ {
			if id[i] == '|' {
				dev = id[:i]
				break
			}
		}
		// The matcher memoizes per distinct suite list, so repeated tuples
		// cost a map hit and the memo is shared with Figure 8.
		m := matcher.MatchSemantics(suites)
		a := accs[m.Category]
		if a == nil {
			a = &acc{vendors: map[string]bool{}}
			accs[m.Category] = a
		}
		a.tuples++
		a.vendors[c.DeviceVendor(dev)] = true
		if m.Category != fingerprint.Customization && !m.Library.SupportedIn2020 {
			a.outdated++
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

// refFigure8 builds the Jaccard histogram for the SameComponent and
// SimilarComponent categories.
func (c *Client) refFigure8(matcher *fingerprint.Matcher, buckets int) []Figure8Bucket {
	if buckets <= 0 {
		buckets = 10
	}
	out := make([]Figure8Bucket, buckets)
	for i := range out {
		out[i].Low = float64(i) / float64(buckets)
		out[i].High = float64(i+1) / float64(buckets)
	}
	for _, suites := range c.refDeviceSuiteTuples() {
		m := matcher.MatchSemantics(suites)
		if m.Category != fingerprint.SameComponent && m.Category != fingerprint.SimilarComponent {
			continue
		}
		idx := int(m.Jaccard * float64(buckets))
		if idx >= buckets {
			idx = buckets - 1
		}
		if m.Category == fingerprint.SameComponent {
			out[idx].SameComp++
		} else {
			out[idx].SimComp++
		}
	}
	return out
}

// refFigure9 computes vulnerable-component inclusion per vendor.
func (c *Client) refFigure9() []Figure9Row {
	rows := map[string]*Figure9Row{}
	for id, suites := range c.refDeviceSuiteTuples() {
		var dev string
		for i := 0; i < len(id); i++ {
			if id[i] == '|' {
				dev = id[:i]
				break
			}
		}
		vendor := c.DeviceVendor(dev)
		row := rows[vendor]
		if row == nil {
			row = &Figure9Row{Vendor: vendor, ByClass: map[ciphersuite.VulnClass]int{}}
			rows[vendor] = row
		}
		row.TupleCount++
		for _, cl := range ciphersuite.VulnClasses(suites) {
			row.ByClass[cl]++
		}
	}
	out := make([]Figure9Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Vendor < out[j].Vendor })
	return out
}

// refFigure11 computes the lowest index of vulnerable ciphersuites per
// vendor (Appendix B.7).
func (c *Client) refFigure11() []Figure11Row {
	rows := map[string]*Figure11Row{}
	for id, suites := range c.refDeviceSuiteTuples() {
		var dev string
		for i := 0; i < len(id); i++ {
			if id[i] == '|' {
				dev = id[:i]
				break
			}
		}
		vendor := c.DeviceVendor(dev)
		row := rows[vendor]
		if row == nil {
			row = &Figure11Row{Vendor: vendor}
			rows[vendor] = row
		}
		row.Tuples++
		// Skip a leading renegotiation SCSV, as the appendix does.
		effective := suites
		if len(effective) > 0 && effective[0] == ciphersuite.SCSVRenegotiation {
			effective = effective[1:]
		}
		idx := ciphersuite.LowestVulnerableIndex(effective)
		if idx >= 0 {
			row.Indices = append(row.Indices, idx)
			if idx == 0 {
				row.FirstPreferred++
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

// refFigure12 computes the most-preferred algorithm components per vendor
// (Appendix B.8). Tuples led by the renegotiation SCSV are excluded, as
// in the paper.
func (c *Client) refFigure12() []Figure12Row {
	rows := map[string]*Figure12Row{}
	for id, suites := range c.refDeviceSuiteTuples() {
		if len(suites) == 0 || suites[0] == ciphersuite.SCSVRenegotiation {
			continue
		}
		first, ok := ciphersuite.Lookup(suites[0])
		if !ok || first.IsSCSV() {
			continue
		}
		var dev string
		for i := 0; i < len(id); i++ {
			if id[i] == '|' {
				dev = id[:i]
				break
			}
		}
		vendor := c.DeviceVendor(dev)
		row := rows[vendor]
		if row == nil {
			row = &Figure12Row{
				Vendor: vendor,
				Kex:    map[string]int{},
				Cipher: map[string]int{},
				MAC:    map[string]int{},
			}
			rows[vendor] = row
		}
		k, ci, m := first.Components()
		row.Kex[k]++
		row.Cipher[ci]++
		row.MAC[m]++
	}
	out := make([]Figure12Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Vendor < out[j].Vendor })
	return out
}

// refDeviceGraphForVendor builds the Figure 4 graph: the vendor's devices on
// the left, their fingerprints on the right.
func (c *Client) refDeviceGraphForVendor(vendor string) *graph.Bipartite {
	g := graph.New()
	c.devicePrints.each(func(dev string, prints StringSet) {
		if c.DeviceVendor(dev) != vendor {
			return
		}
		for _, key := range prints {
			g.AddEdge(dev, key)
		}
	})
	return g
}

// refDeviceDoCsForVendor returns the per-device DoC values of one vendor
// (Figure 10 rows).
func (c *Client) refDeviceDoCsForVendor(vendor string) []float64 {
	g := c.refDeviceGraphForVendor(vendor)
	docs := g.DoCAll()
	out := make([]float64, 0, len(docs))
	keys := make([]string, 0, len(docs))
	for k := range docs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, docs[k])
	}
	return out
}

// vendorNames returns the vendors of the known devices, sorted.
func (c *Client) vendorNames() []string {
	set := map[string]bool{}
	c.devices.each(func(_ string, d deviceIdentity) { set[d.vendor] = true })
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// refDoCDeviceAll is DoC_device from one device-fingerprint graph per
// vendor, with each vendor's per-device DoCs summed in device-ID order.
func (c *Client) refDoCDeviceAll() map[string]float64 {
	out := map[string]float64{}
	for _, vendor := range c.vendorNames() {
		docs := c.refDeviceDoCsForVendor(vendor)
		if len(docs) == 0 {
			out[vendor] = 0
			continue
		}
		sum := 0.0
		for _, v := range docs {
			sum += v
		}
		out[vendor] = sum / float64(len(docs))
	}
	return out
}

// refTable2 is Table 2 from the Figure 1 graph.
func (c *Client) refTable2() graph.DegreeDistribution {
	return c.VendorGraph().DegreeDistribution()
}

// refDoCVendorAll is DoC_vendor from the Figure 1 graph.
func (c *Client) refDoCVendorAll() map[string]float64 {
	return c.VendorGraph().DoCAll()
}

// refTable4 is Table 4 from the Figure 1 graph.
func (c *Client) refTable4(threshold float64) []graph.SimilarPair {
	return c.VendorGraph().SimilarPairs(threshold)
}

// refTable3 computes the Table 3 rows from string-keyed maps.
func (c *Client) refTable3(topN int) []Table3Row {
	type tally struct{ prints, shared10, single int }
	perVendor := map[string]*tally{}
	devices := map[string]int{}
	for _, key := range c.orderedKeys {
		info := c.Fingerprint(key)
		clear(devices)
		for _, dev := range info.Devices {
			devices[c.DeviceVendor(dev)]++
		}
		for _, vendor := range info.Vendors {
			t := perVendor[vendor]
			if t == nil {
				t = &tally{}
				perVendor[vendor] = t
			}
			t.prints++
			switch n := devices[vendor]; {
			case n >= 10:
				t.shared10++
			case n == 1:
				t.single++
			}
		}
	}
	rows := make([]Table3Row, 0, len(perVendor))
	for vendor, t := range perVendor {
		rows = append(rows, Table3Row{
			Vendor:          vendor,
			NumFingerprints: t.prints,
			SharedBy10Plus:  float64(t.shared10) / float64(t.prints),
			UsedBySingleDev: float64(t.single) / float64(t.prints),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].NumFingerprints != rows[j].NumFingerprints {
			return rows[i].NumFingerprints > rows[j].NumFingerprints
		}
		return rows[i].Vendor < rows[j].Vendor
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	return rows
}

// refTable5 computes the Table 5 rows from string-keyed maps, grouping
// tied SNIs by a comparable {SLD, print key} pair.
func (c *Client) refTable5(minDevices int) []Table5Row {
	sniPrints := map[string]map[string]bool{}
	for _, key := range c.orderedKeys {
		for _, sni := range c.Fingerprint(key).SNIs {
			if sniPrints[sni] == nil {
				sniPrints[sni] = map[string]bool{}
			}
			sniPrints[sni][key] = true
		}
	}
	type agg struct {
		fqdns   int
		devices map[string]bool
		vendors map[string]bool
	}
	type tie struct{ sld, key string }
	tied := map[tie]*agg{}
	for sni, prints := range sniPrints {
		if len(prints) != 1 {
			continue
		}
		var key string
		for k := range prints {
			key = k
		}
		id := tie{simnet.SLDOf(sni), key}
		a := tied[id]
		if a == nil {
			a = &agg{devices: map[string]bool{}, vendors: map[string]bool{}}
			tied[id] = a
		}
		a.fqdns++
		for _, d := range c.SNIDevices(sni) {
			a.devices[d] = true
			a.vendors[c.DeviceVendor(d)] = true
		}
	}
	var rows []Table5Row
	for id, a := range tied {
		if len(a.vendors) < 2 || len(a.devices) < minDevices {
			continue
		}
		var vulns []string
		for _, v := range c.Fingerprint(id.key).Print.VulnClasses() {
			vulns = append(vulns, v.String())
		}
		vendors := make([]string, 0, len(a.vendors))
		for v := range a.vendors {
			vendors = append(vendors, v)
		}
		sort.Strings(vendors)
		rows = append(rows, Table5Row{
			SLD:        id.sld,
			FQDNs:      a.fqdns,
			VulnLabels: vulns,
			Devices:    len(a.devices),
			Vendors:    vendors,
			PrintKey:   id.key,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Devices != rows[j].Devices {
			return rows[i].Devices > rows[j].Devices
		}
		if rows[i].SLD != rows[j].SLD {
			return rows[i].SLD < rows[j].SLD
		}
		return rows[i].PrintKey < rows[j].PrintKey
	})
	return rows
}

// refVulnerabilities computes the Section 4.2 statistics from
// string-keyed maps.
func (c *Client) refVulnerabilities() VulnStats {
	st := VulnStats{
		TotalFingerprints: c.prints.len(),
		ByClass:           map[ciphersuite.VulnClass]int{},
	}
	awfulVendors := map[string]bool{}
	awfulDevices := map[string]bool{}
	for _, key := range c.orderedKeys {
		info := c.Fingerprint(key)
		classes := info.Print.VulnClasses()
		if len(classes) == 0 {
			continue
		}
		st.WithVulnerable++
		if len(info.Devices) >= 2 {
			st.VulnUsedByMultipleDevices++
		}
		awful := false
		for _, cl := range classes {
			st.ByClass[cl]++
			switch cl {
			case ciphersuite.VulnAnonKex, ciphersuite.VulnExport,
				ciphersuite.VulnNULL, ciphersuite.VulnKRB5Export, ciphersuite.VulnRC2:
				awful = true
			}
		}
		if awful {
			st.AwfulFingerprints++
			for _, d := range info.Devices {
				awfulDevices[d] = true
			}
			for _, v := range info.Vendors {
				awfulVendors[v] = true
			}
		}
	}
	st.AwfulDevices = len(awfulDevices)
	for v := range awfulVendors {
		st.AwfulVendors = append(st.AwfulVendors, v)
	}
	sort.Strings(st.AwfulVendors)
	return st
}

// refCensus computes the extension censuses from string-keyed maps.
func (c *Client) refCensus() ExtensionCensus {
	type devFlags struct {
		ocsp, gSuite, gExt, scsv bool
	}
	flags := map[string]*devFlags{}
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
			f := flags[dev]
			if f == nil {
				f = &devFlags{}
				flags[dev] = f
			}
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

// deltaGrownClone grows a Client the way the daemon does, NewDelta per
// batch and MergeDelta in a shuffled batch order, and returns its Clone:
// DS is nil there, as in a published snapshot.
func deltaGrownClone(t *testing.T, rows []dataset.Record, seed int64) *Client {
	t.Helper()
	const batch = 250
	var deltas []*Delta
	for lo := 0; lo < len(rows); lo += batch {
		d, err := NewDelta(rows[lo:min(lo+batch, len(rows))])
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, d)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(deltas), func(i, j int) {
		deltas[i], deltas[j] = deltas[j], deltas[i]
	})
	c := NewClientEmpty()
	for _, d := range deltas {
		c.MergeDelta(d)
	}
	snap := c.Clone()
	if snap.DS != nil {
		t.Fatal("delta-grown clone carries a dataset")
	}
	return snap
}

// addTwinPrint adds a print with the ciphersuite list of the print most
// devices use but one more extension. The twin's devices are half of the
// original's plus one device outside it, so some devices reach the list
// through two prints and one through the twin alone. Each of them is
// still one {device, ciphersuite list} tuple. Below scale 10 no
// generated study has such a device.
func addTwinPrint(t *testing.T, c *Client) {
	t.Helper()
	var orig *FingerprintInfo
	for _, key := range c.orderedKeys {
		if info := c.Fingerprint(key); orig == nil || len(info.Devices) > len(orig.Devices) {
			orig = info
		}
	}
	extra := ""
	for _, key := range c.orderedKeys {
		for _, dev := range c.Fingerprint(key).Devices {
			if extra == "" && !orig.Devices.Has(dev) {
				extra = dev
			}
		}
	}
	twin := *orig
	twin.Print.Extensions = append(append([]uint16(nil), orig.Print.Extensions...), 0xfe0d)
	twin.Key = twin.Print.Key()
	if len(orig.Devices) < 2 || extra == "" || c.Fingerprint(twin.Key) != nil {
		t.Fatalf("cannot add a twin of %s", orig.Key)
	}
	twin.Devices = unionSets(orig.Devices[:len(orig.Devices)/2], StringSet{extra})
	a := aggregate{prints: []*FingerprintInfo{&twin}}
	for _, dev := range twin.Devices {
		a.devicePrints = append(a.devicePrints, keyedSet{dev, StringSet{twin.Key}})
	}
	c.merge(&a)
}

// addSCSVOnlyVendor adds a vendor whose one device proposes one list,
// led by the renegotiation SCSV. Figure 12 skips such a list before it
// creates the vendor's row, so the vendor has no Figure 12 row at all.
func addSCSVOnlyVendor(c *Client) {
	const dev, vendor = "scsv-only-device", "SCSV-only vendor"
	f := c.Fingerprint(c.orderedKeys[0]).Print
	f.CipherSuites = append([]uint16{ciphersuite.SCSVRenegotiation}, f.CipherSuites...)
	key := f.Key()
	c.merge(&aggregate{
		prints: []*FingerprintInfo{{
			Print: f, Key: key, Records: 1,
			Devices: StringSet{dev}, Vendors: StringSet{vendor}, Types: StringSet{"camera"},
		}},
		devicePrints: []keyedSet{{dev, StringSet{key}}},
	})
	c.setDevice(dev, deviceIdentity{vendor: vendor, typ: "camera"})
}

// sameBits reports the first vendor whose value differs from want in
// any bit, or whose key is missing on either side.
func sameBits(got, want map[string]float64) (string, bool) {
	vendors := make([]string, 0, len(want)+len(got))
	for v := range want {
		vendors = append(vendors, v)
	}
	for v := range got {
		vendors = append(vendors, v)
	}
	sort.Strings(vendors)
	for _, v := range vendors {
		g, okG := got[v]
		w, okW := want[v]
		if okG != okW || math.Float64bits(g) != math.Float64bits(w) {
			return v, false
		}
	}
	return "", true
}

// TestGroupedTablesMatchTupleReference checks every client table that
// reads the Client's index against a reference over the string-keyed
// state: Table 11 and Figures 8, 9, 11 and 12 against per-tuple
// references, DoC_device, DoC_vendor and Tables 2 and 4 against graph
// references, and Tables 3 and 5, VulnStats and Census against
// string-map references, row for row and bit for bit.
func TestGroupedTablesMatchTupleReference(t *testing.T) {
	type study struct {
		name    string
		client  func(t *testing.T) *Client
		matcher func() *fingerprint.Matcher
	}
	fromConfig := func(cfg dataset.Config) func(t *testing.T) *Client {
		return func(t *testing.T) *Client {
			c, err := NewClientWorkers(dataset.Generate(cfg), 0)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	var studies []study
	for _, seed := range []int64{1, 4242, 20231024} {
		for _, scale := range []float64{0.3, 1, 3} {
			studies = append(studies, study{
				name:    fmt.Sprintf("seed=%d/scale=%g", seed, scale),
				client:  fromConfig(dataset.Config{Seed: seed, Scale: scale}),
				matcher: libcorpus.NewMatcher,
			})
		}
	}
	asof := time.Date(2025, 8, 1, 0, 0, 0, 0, time.UTC)
	studies = append(studies,
		study{
			name:    "seed=20231024/asof=2025-08-01",
			client:  fromConfig(dataset.Config{Seed: 20231024, Scale: 1, AsOf: asof}),
			matcher: func() *fingerprint.Matcher { return libcorpus.NewMatcherAsOf(asof) },
		},
		study{
			name: "seed=1/scale=1/edge-prints",
			client: func(t *testing.T) *Client {
				c := fromConfig(dataset.Config{Seed: 1, Scale: 1})(t)
				addTwinPrint(t, c)
				addSCSVOnlyVendor(c)
				return c
			},
			matcher: libcorpus.NewMatcher,
		},
		study{
			name: "seed=4242/delta-grown-clone",
			client: func(t *testing.T) *Client {
				ds := dataset.Generate(dataset.Config{Seed: 4242, Scale: 1})
				return deltaGrownClone(t, ds.Records.Rows(), 7)
			},
			matcher: libcorpus.NewMatcher,
		},
	)
	for _, st := range studies {
		t.Run(st.name, func(t *testing.T) {
			c := st.client(t)
			// Fresh matchers on both sides: neither result may lean on
			// the other's semantic memo.
			if got, want := c.Table11(st.matcher()), c.refTable11(st.matcher()); !reflect.DeepEqual(got, want) {
				t.Errorf("Table11:\n got %+v\nwant %+v", got, want)
			}
			m := st.matcher()
			if got, want := c.Figure8(m, 10), c.refFigure8(m, 10); !reflect.DeepEqual(got, want) {
				t.Errorf("Figure8:\n got %+v\nwant %+v", got, want)
			}
			if got, want := c.Figure9(), c.refFigure9(); !reflect.DeepEqual(got, want) {
				t.Errorf("Figure9 differs from the per-tuple reference")
			}
			if got, want := c.Figure11(), c.refFigure11(); !reflect.DeepEqual(got, want) {
				t.Errorf("Figure11 differs from the per-tuple reference")
			}
			if got, want := c.Figure12(), c.refFigure12(); !reflect.DeepEqual(got, want) {
				t.Errorf("Figure12 differs from the per-tuple reference")
			}
			if v, ok := sameBits(c.DoCDeviceAll(), c.refDoCDeviceAll()); !ok {
				t.Errorf("DoCDeviceAll differs from the graph reference at vendor %q", v)
			}
			if v, ok := sameBits(c.DoCVendorAll(), c.refDoCVendorAll()); !ok {
				t.Errorf("DoCVendorAll differs from the graph reference at vendor %q", v)
			}
			if got, want := c.Table2(), c.refTable2(); !reflect.DeepEqual(got, want) {
				t.Errorf("Table2:\n got %+v\nwant %+v", got, want)
			}
			for _, topN := range []int{10, 0} {
				if got, want := c.Table3(topN), c.refTable3(topN); !reflect.DeepEqual(got, want) {
					t.Errorf("Table3(%d) differs from the string-map reference", topN)
				}
			}
			for _, threshold := range []float64{0.2, 0} {
				if got, want := c.Table4(threshold), c.refTable4(threshold); !reflect.DeepEqual(got, want) {
					t.Errorf("Table4(%v) differs from the graph reference", threshold)
				}
			}
			for _, minDevices := range []int{2, 1} {
				if got, want := c.Table5(minDevices), c.refTable5(minDevices); !reflect.DeepEqual(got, want) {
					t.Errorf("Table5(%d) differs from the string-map reference", minDevices)
				}
			}
			if got, want := c.Vulnerabilities(), c.refVulnerabilities(); !reflect.DeepEqual(got, want) {
				t.Errorf("Vulnerabilities:\n got %+v\nwant %+v", got, want)
			}
			if got, want := c.Census(), c.refCensus(); got != want {
				t.Errorf("Census:\n got %+v\nwant %+v", got, want)
			}
			for _, vendor := range c.vendorNames() {
				got, want := c.DeviceDoCsForVendor(vendor), c.refDeviceDoCsForVendor(vendor)
				if len(got) != len(want) {
					t.Fatalf("DeviceDoCsForVendor(%q): %d devices, want %d", vendor, len(got), len(want))
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("DeviceDoCsForVendor(%q)[%d] = %v, want %v", vendor, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestDoCDeviceAllDeterministic pins DoC_device to the bit across
// clients, worker counts and delta merge orders. At seed 1003, scale 1,
// several vendors' means change in their low bits under another
// summation order, and a mean on a Figure 2 bin edge then moves a CDF row.
func TestDoCDeviceAllDeterministic(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: 1003, Scale: 1})
	var want map[string]float64
	check := func(name string, c *Client) {
		got := c.DoCDeviceAll()
		if want == nil {
			want = got
			return
		}
		if v, ok := sameBits(got, want); !ok {
			t.Errorf("%s: DoC_device of %q is %v, first client had %v", name, v, got[v], want[v])
		}
	}
	for i := 0; i < 20; i++ {
		workers := 1 + 3*(i%2)
		c, err := NewClientWorkers(ds, workers)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("client %d (workers=%d)", i, workers), c)
	}
	check("delta-grown clone", deltaGrownClone(t, ds.Records.Rows(), 3))
}
