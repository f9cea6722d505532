package analysis

import (
	"bytes"
	"crypto/x509"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ctlog"
	"repro/internal/dataset"
	"repro/internal/pki"
	"repro/internal/probe"
	"repro/internal/simnet"
)

// CertRecord is one successfully probed server at the primary vantage.
type CertRecord struct {
	SNI       string
	SLD       string
	Chain     pki.Chain
	Leaf      *x509.Certificate
	LeafFP    ctlog.Hash
	IssuerOrg string
	// IssuerPublic: the issuer organization has a root in a major trust
	// store (Section 5.2's public trust CA definition).
	IssuerPublic bool
	// Status is the chain validation outcome.
	Status pki.ChainStatus
	// ValidityDays of the leaf.
	ValidityDays int
	// InCT: the leaf appears in the CT log.
	InCT bool
	// IPs the server resolves to.
	IPs []string
	// Devices / Vendors that visited the SNI in the ClientHello dataset.
	Devices map[string]bool
	Vendors map[string]bool
}

// Server is the server-side analysis state (Section 5).
type Server struct {
	World *simnet.World
	// Vantages is the probing locations the collection run used, in
	// order; the first entry is the primary vantage whose chains become
	// Records (the paper probed from New York, Frankfurt, and Singapore
	// with New York primary).
	Vantages []simnet.Vantage
	// Records are the successful primary-vantage probes.
	Records []*CertRecord
	// ByVantage stores leaf DER per vantage for the geo comparison.
	ByVantage map[simnet.Vantage]map[string][]byte
	// ProbedSNIs is the input SNI set (after the >2 users filter).
	ProbedSNIs []string
	// UnreachableSNIs failed at every vantage.
	UnreachableSNIs []string
	// ProbeStats summarizes the resilient-probe run: attempts, retries,
	// failure classes, breaker activity.
	ProbeStats probe.Stats
}

// NewServerFromProbes assembles the Section 5 certificate dataset from an
// already-completed probe run: the chain validation and CT lookups of
// ValidateProbes, then the visitation index scanned from ds's records,
// attached through AttachVisitors. vantages is the location set the run
// probed, primary first (nil or empty: the paper's three with New York
// primary). The stage-based pipeline of internal/core runs the two
// halves as separate stages and attaches from the client state instead
// of rescanning the records.
func NewServerFromProbes(w *simnet.World, ds *dataset.Dataset, snis []string, vantages []simnet.Vantage, results []probe.Result, stats probe.Stats) *Server {
	s := ValidateProbes(w, snis, vantages, results, stats, 0)
	s.AttachVisitors(visitIndex(ds))
	return s
}

// ValidateProbes folds a completed probe run into a Server and
// validates every primary-vantage chain, spreading the SNIs across
// workers (<= 0: GOMAXPROCS). The validator's trust cache verifies each
// distinct chain once whatever the worker count, and Records come back
// in SNI order, so the result is identical for any worker count. Every
// record's Devices and Vendors are empty until AttachVisitors fills
// them in.
func ValidateProbes(w *simnet.World, snis []string, vantages []simnet.Vantage, results []probe.Result, stats probe.Stats, workers int) *Server {
	if len(vantages) == 0 {
		vantages = simnet.Vantages()
	}
	s := &Server{
		World:      w,
		Vantages:   vantages,
		ByVantage:  map[simnet.Vantage]map[string][]byte{},
		ProbedSNIs: snis,
		ProbeStats: stats,
	}
	chains := map[simnet.Vantage]map[string]pki.Chain{}
	for _, v := range vantages {
		chains[v] = map[string]pki.Chain{}
		s.ByVantage[v] = map[string][]byte{}
	}
	failed := map[string]int{}
	for _, r := range results {
		if r.Err != nil {
			failed[r.SNI]++
			continue
		}
		chains[r.Vantage][r.SNI] = r.Response.Chain
		if leaf := r.Response.Chain.Leaf(); leaf != nil {
			s.ByVantage[r.Vantage][r.SNI] = leaf.Raw
		}
	}
	for sni, n := range failed {
		if n == len(vantages) {
			s.UnreachableSNIs = append(s.UnreachableSNIs, sni)
		}
	}
	sort.Strings(s.UnreachableSNIs)

	// Primary vantage records (the first vantage; New York in the paper).
	primary := chains[vantages[0]]
	ordered := make([]string, 0, len(primary))
	for sni := range primary {
		ordered = append(ordered, sni)
	}
	sort.Strings(ordered)
	recs := make([]*CertRecord, len(ordered))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(ordered)))
	// Workers claim SNIs in order from a shared counter rather than
	// taking contiguous shards: a cache miss costs a chain verification
	// and a hit almost nothing, so fixed shards would leave workers idle.
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ordered); i = int(next.Add(1) - 1) {
				recs[i] = newCertRecord(w, ordered[i], primary[ordered[i]])
			}
		}()
	}
	wg.Wait()
	for _, rec := range recs {
		if rec != nil {
			s.Records = append(s.Records, rec)
		}
	}
	return s
}

// newCertRecord validates one primary-vantage chain. It returns nil for
// a chain without a leaf.
func newCertRecord(w *simnet.World, sni string, chain pki.Chain) *CertRecord {
	leaf := chain.Leaf()
	if leaf == nil {
		return nil
	}
	res := w.Validator.Validate(chain, sni, w.ProbeTime)
	issuerOrg := pki.IssuerOrg(leaf)
	rec := &CertRecord{
		SNI:          sni,
		SLD:          simnet.SLDOf(sni),
		Chain:        chain,
		Leaf:         leaf,
		LeafFP:       ctlog.CertFingerprint(leaf),
		IssuerOrg:    issuerOrg,
		IssuerPublic: w.Stores.ContainsOrg(issuerOrg),
		Status:       res.Status,
		ValidityDays: int(leaf.NotAfter.Sub(leaf.NotBefore).Hours() / 24),
		InCT:         w.Log.Contains(leaf),
	}
	if srv := w.Servers[sni]; srv != nil {
		rec.IPs = srv.IPs
	}
	return rec
}

// AttachVisitors joins the passive view to the active one: every
// record's Devices become the devices that visited its SNI in the
// ClientHello dataset, and its Vendors those devices' vendors.
// sniDevices and deviceVendor are lookups of the shape of
// Client.SNIDevices and Client.DeviceVendor, so a study attaches
// straight from its ingested client state. A record whose SNI no device
// visited gets empty sets.
func (s *Server) AttachVisitors(sniDevices func(sni string) StringSet, deviceVendor func(dev string) string) {
	for _, rec := range s.Records {
		devs := sniDevices(rec.SNI)
		rec.Devices = make(map[string]bool, len(devs))
		rec.Vendors = map[string]bool{}
		for _, d := range devs {
			rec.Devices[d] = true
			rec.Vendors[deviceVendor(d)] = true
		}
	}
}

// visitIndex builds, for callers without an ingested Client, the
// lookups Client.SNIDevices and Client.DeviceVendor provide: the devices
// that visited each SNI, scanned from ds's records, and each device's
// vendor. Records are walked in column form, so a record without an SNI
// is skipped on a symbol compare without materializing a row.
func visitIndex(ds *dataset.Dataset) (func(sni string) StringSet, func(dev string) string) {
	recs := ds.Records
	tab := recs.Table()
	seen := map[sniEdge]struct{}{}
	sniDevices := map[string]StringSet{}
	for i := 0; i < recs.Len(); i++ {
		e := sniEdge{sni: recs.SNISym(i), dev: recs.DeviceSym(i)}
		if e.sni == 0 {
			continue
		}
		if _, ok := seen[e]; ok {
			continue
		}
		seen[e] = struct{}{}
		sni := tab.Str(e.sni)
		sniDevices[sni] = append(sniDevices[sni], tab.Str(e.dev))
	}
	for _, devs := range sniDevices {
		sort.Strings(devs)
	}
	deviceVendor := make(map[string]string, len(ds.Devices))
	for _, d := range ds.Devices {
		deviceVendor[d.ID] = d.Vendor
	}
	return func(sni string) StringSet { return sniDevices[sni] },
		func(dev string) string { return deviceVendor[dev] }
}

// Table6 is the certificate dataset summary.
type Table6 struct {
	Servers       int
	LeafCerts     int
	IssuerOrgs    int
	DeviceVendors int
}

// Table6 summarizes the certificate dataset.
func (s *Server) Table6() Table6 {
	leafs := map[ctlog.Hash]bool{}
	orgs := map[string]bool{}
	vendors := map[string]bool{}
	for _, r := range s.Records {
		leafs[r.LeafFP] = true
		orgs[r.IssuerOrg] = true
		for v := range r.Vendors {
			vendors[v] = true
		}
	}
	return Table6{
		Servers:       len(s.Records),
		LeafCerts:     len(leafs),
		IssuerOrgs:    len(orgs),
		DeviceVendors: len(vendors),
	}
}

// SharingStats quantifies certificate sharing (Section 5.1).
type SharingStats struct {
	// ServersPerCertMean/Var/Max: FQDNs presenting the same leaf.
	ServersPerCertMean float64
	ServersPerCertVar  float64
	ServersPerCertMax  int
	// MultiIPFraction of certs served from >= 2 IPs.
	MultiIPFraction float64
	// IPsPerCertMean/Max across certs.
	IPsPerCertMean float64
	IPsPerCertMax  int
}

// Sharing computes the certificate sharing statistics.
func (s *Server) Sharing() SharingStats {
	fqdns := map[ctlog.Hash]int{}
	ips := map[ctlog.Hash]map[string]bool{}
	for _, r := range s.Records {
		fqdns[r.LeafFP]++
		if ips[r.LeafFP] == nil {
			ips[r.LeafFP] = map[string]bool{}
		}
		for _, ip := range r.IPs {
			ips[r.LeafFP][ip] = true
		}
	}
	var st SharingStats
	if len(fqdns) == 0 {
		return st
	}
	sum := 0.0
	for _, n := range fqdns {
		sum += float64(n)
		if n > st.ServersPerCertMax {
			st.ServersPerCertMax = n
		}
	}
	st.ServersPerCertMean = sum / float64(len(fqdns))
	varSum := 0.0
	for _, n := range fqdns {
		d := float64(n) - st.ServersPerCertMean
		varSum += d * d
	}
	st.ServersPerCertVar = varSum / float64(len(fqdns))
	multi := 0
	ipSum := 0.0
	for _, set := range ips {
		if len(set) >= 2 {
			multi++
		}
		ipSum += float64(len(set))
		if len(set) > st.IPsPerCertMax {
			st.IPsPerCertMax = len(set)
		}
	}
	st.MultiIPFraction = float64(multi) / float64(len(ips))
	st.IPsPerCertMean = ipSum / float64(len(ips))
	return st
}

// Figure5Cell is the ratio of a vendor's visited-server certificates
// signed by an issuer.
type Figure5Cell struct {
	Vendor string
	Issuer string
	Ratio  float64
}

// Figure5 builds the issuer × vendor matrix. Ratios sum to 1 per vendor.
func (s *Server) Figure5() []Figure5Cell {
	counts := map[string]map[string]int{} // vendor -> issuer -> servers
	for _, r := range s.Records {
		for v := range r.Vendors {
			if counts[v] == nil {
				counts[v] = map[string]int{}
			}
			counts[v][r.IssuerOrg]++
		}
	}
	var out []Figure5Cell
	vendors := make([]string, 0, len(counts))
	for v := range counts {
		vendors = append(vendors, v)
	}
	sort.Strings(vendors)
	for _, v := range vendors {
		total := 0
		for _, n := range counts[v] {
			total += n
		}
		issuers := make([]string, 0, len(counts[v]))
		for i := range counts[v] {
			issuers = append(issuers, i)
		}
		sort.Strings(issuers)
		for _, i := range issuers {
			out = append(out, Figure5Cell{Vendor: v, Issuer: i, Ratio: float64(counts[v][i]) / float64(total)})
		}
	}
	return out
}

// PrivateLeafFraction returns the fraction of distinct leaf certificates
// signed by private CAs (the paper's 9.86%) and the number of devices
// visiting servers presenting them.
func (s *Server) PrivateLeafFraction() (fraction float64, devices int) {
	leafs := map[ctlog.Hash]bool{}
	private := map[ctlog.Hash]bool{}
	devSet := map[string]bool{}
	for _, r := range s.Records {
		leafs[r.LeafFP] = true
		if !r.IssuerPublic {
			private[r.LeafFP] = true
			for d := range r.Devices {
				devSet[d] = true
			}
		}
	}
	if len(leafs) == 0 {
		return 0, 0
	}
	return float64(len(private)) / float64(len(leafs)), len(devSet)
}

// VendorsOnlyPrivate returns vendors all of whose visited servers present
// vendor-signed (private) leaves (Canary, Tuya, Obihai in the paper).
func (s *Server) VendorsOnlyPrivate() []string {
	pub := map[string]bool{}
	priv := map[string]bool{}
	for _, r := range s.Records {
		for v := range r.Vendors {
			if r.IssuerPublic {
				pub[v] = true
			} else {
				priv[v] = true
			}
		}
	}
	var out []string
	for v := range priv {
		if !pub[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// DomainRow aggregates per-SLD rows for Tables 7, 8, and 14.
type DomainRow struct {
	SLD          string
	FQDNs        int
	IssuerOrg    string
	IssuerPublic bool
	ChainLengths []int
	Devices      int
	Vendors      []string
	Statuses     []pki.ChainStatus
	// NotAfter (earliest) for expired rows.
	NotAfter time.Time
}

// domainRows groups records matching the filter by SLD+issuer.
func (s *Server) domainRows(filter func(*CertRecord) bool) []DomainRow {
	type agg struct {
		fqdns    int
		lengths  map[int]bool
		devices  map[string]bool
		vendors  map[string]bool
		status   map[pki.ChainStatus]bool
		public   bool
		notAfter time.Time
	}
	// The SLD comes from a client-supplied SNI and the issuer from a
	// certificate, so the key keeps them apart rather than joining them
	// into one string.
	type domain struct{ sld, issuer string }
	rows := map[domain]*agg{}
	for _, r := range s.Records {
		if !filter(r) {
			continue
		}
		id := domain{r.SLD, r.IssuerOrg}
		a := rows[id]
		if a == nil {
			a = &agg{
				lengths:  map[int]bool{},
				devices:  map[string]bool{},
				vendors:  map[string]bool{},
				status:   map[pki.ChainStatus]bool{},
				public:   r.IssuerPublic,
				notAfter: r.Leaf.NotAfter,
			}
			rows[id] = a
		}
		a.fqdns++
		a.lengths[r.Chain.Len()] = true
		for d := range r.Devices {
			a.devices[d] = true
		}
		for v := range r.Vendors {
			a.vendors[v] = true
		}
		a.status[r.Status] = true
		if r.Leaf.NotAfter.Before(a.notAfter) {
			a.notAfter = r.Leaf.NotAfter
		}
	}
	out := make([]DomainRow, 0, len(rows))
	for id, a := range rows {
		row := DomainRow{
			SLD:          id.sld,
			FQDNs:        a.fqdns,
			IssuerOrg:    id.issuer,
			IssuerPublic: a.public,
			Devices:      len(a.devices),
			NotAfter:     a.notAfter,
		}
		for l := range a.lengths {
			row.ChainLengths = append(row.ChainLengths, l)
		}
		sort.Ints(row.ChainLengths)
		for v := range a.vendors {
			row.Vendors = append(row.Vendors, v)
		}
		sort.Strings(row.Vendors)
		for st := range a.status {
			row.Statuses = append(row.Statuses, st)
		}
		sort.Slice(row.Statuses, func(i, j int) bool { return row.Statuses[i] < row.Statuses[j] })
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Devices != out[j].Devices {
			return out[i].Devices > out[j].Devices
		}
		return out[i].SLD < out[j].SLD
	})
	return out
}

// Table7 lists chains with validation failure (incomplete chains and
// untrusted roots, plus self-signed presentations).
func (s *Server) Table7() []DomainRow {
	return s.domainRows(func(r *CertRecord) bool {
		switch r.Status {
		case pki.StatusIncompleteChain, pki.StatusUntrustedRoot, pki.StatusSelfSigned:
			return true
		default:
			return false
		}
	})
}

// Table8 lists expired certificates.
func (s *Server) Table8() []DomainRow {
	return s.domainRows(func(r *CertRecord) bool {
		return r.Status == pki.StatusExpired
	})
}

// Table14 lists private-root and self-signed chains.
func (s *Server) Table14() []DomainRow {
	return s.domainRows(func(r *CertRecord) bool {
		return r.Status == pki.StatusUntrustedRoot || r.Status == pki.StatusSelfSigned
	})
}

// CNMismatches lists servers whose certificate names neither CN nor SAN
// of the SNI (the a2.tuyaus.com case).
func (s *Server) CNMismatches() []DomainRow {
	return s.domainRows(func(r *CertRecord) bool {
		return r.Status == pki.StatusCNMismatch
	})
}

// Figure6Point is one certificate in the validity × CT scatter.
type Figure6Point struct {
	Vendor       string
	ValidityDays int
	// ChainClass: 0 = public leaf+root, 1 = private leaf w/ public root,
	// 2 = private leaf+root.
	ChainClass int
	InCT       bool
}

// Figure6 produces the scatter points per vendor.
func (s *Server) Figure6() []Figure6Point {
	var out []Figure6Point
	for _, r := range s.Records {
		class := 0
		if !r.IssuerPublic {
			class = 2
			if r.Status == pki.StatusValid || r.Status == pki.StatusIncompleteChain {
				class = 1 // private leaf chaining to a public root
			}
		}
		for v := range r.Vendors {
			out = append(out, Figure6Point{
				Vendor:       v,
				ValidityDays: r.ValidityDays,
				ChainClass:   class,
				InCT:         r.InCT,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Vendor != out[j].Vendor {
			return out[i].Vendor < out[j].Vendor
		}
		return out[i].ValidityDays < out[j].ValidityDays
	})
	return out
}

// Table9Row groups Netflix-signed leaves by validity.
type Table9Row struct {
	LeafIssuer    string
	ValidityDays  []int
	TopmostIssuer string
	Certs         int
	InCT          bool
}

// Table9 reproduces the Netflix validity variance table.
func (s *Server) Table9() []Table9Row {
	type agg struct {
		days    map[int]bool
		certs   map[ctlog.Hash]bool
		inCT    bool
		topmost string
	}
	groups := map[string]*agg{} // "long" / "short"
	for _, r := range s.Records {
		if r.IssuerOrg != "Netflix" {
			continue
		}
		key := "short"
		if r.ValidityDays > 1000 {
			key = "long"
		}
		a := groups[key]
		if a == nil {
			a = &agg{days: map[int]bool{}, certs: map[ctlog.Hash]bool{}}
			groups[key] = a
		}
		a.days[r.ValidityDays] = true
		a.certs[r.LeafFP] = true
		a.inCT = a.inCT || r.InCT
		top := r.Chain.Certs[len(r.Chain.Certs)-1]
		a.topmost = pki.IssuerOrg(top)
	}
	var out []Table9Row
	for _, key := range []string{"long", "short"} {
		a := groups[key]
		if a == nil {
			continue
		}
		row := Table9Row{LeafIssuer: "Netflix", TopmostIssuer: a.topmost, Certs: len(a.certs), InCT: a.inCT}
		for d := range a.days {
			row.ValidityDays = append(row.ValidityDays, d)
		}
		sort.Ints(row.ValidityDays)
		out = append(out, row)
	}
	return out
}

// CTStats summarizes Section 5.4's CT findings.
type CTStats struct {
	// PublicLogged / PublicNotLogged: distinct public-CA leaves.
	PublicLogged, PublicNotLogged int
	// PrivateLogged / PrivateNotLogged: distinct private-CA leaves.
	PrivateLogged, PrivateNotLogged int
	// PublicMissIssuers lists issuers of unlogged public-CA leaves.
	PublicMissIssuers map[string]int
}

// CT computes the CT logging statistics.
func (s *Server) CT() CTStats {
	st := CTStats{PublicMissIssuers: map[string]int{}}
	seen := map[ctlog.Hash]bool{}
	for _, r := range s.Records {
		if seen[r.LeafFP] {
			continue
		}
		seen[r.LeafFP] = true
		switch {
		case r.IssuerPublic && r.InCT:
			st.PublicLogged++
		case r.IssuerPublic && !r.InCT:
			st.PublicNotLogged++
			st.PublicMissIssuers[r.IssuerOrg]++
		case !r.IssuerPublic && r.InCT:
			st.PrivateLogged++
		default:
			st.PrivateNotLogged++
		}
	}
	return st
}

// Table15Row is one popular SLD.
type Table15Row struct {
	SLD     string
	Servers int
	Devices int
}

// Table15 returns the topN SLDs by unique visiting devices.
func (s *Server) Table15(topN int) []Table15Row {
	type agg struct {
		servers int
		devices map[string]bool
	}
	slds := map[string]*agg{}
	for _, r := range s.Records {
		a := slds[r.SLD]
		if a == nil {
			a = &agg{devices: map[string]bool{}}
			slds[r.SLD] = a
		}
		a.servers++
		for d := range r.Devices {
			a.devices[d] = true
		}
	}
	out := make([]Table15Row, 0, len(slds))
	for sld, a := range slds {
		out = append(out, Table15Row{SLD: sld, Servers: a.servers, Devices: len(a.devices)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Devices != out[j].Devices {
			return out[i].Devices > out[j].Devices
		}
		return out[i].SLD < out[j].SLD
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// SLDStats summarizes the long-tail SLD distribution of Section 5.1.
type SLDStats struct {
	DistinctSLDs        int
	MeanDevicesPerSLD   float64
	MaxDevicesPerSLD    int
	MedianDevicesPerSLD int
}

// SLDs computes the SLD distribution statistics.
func (s *Server) SLDs() SLDStats {
	devices := map[string]map[string]bool{}
	for _, r := range s.Records {
		if devices[r.SLD] == nil {
			devices[r.SLD] = map[string]bool{}
		}
		for d := range r.Devices {
			devices[r.SLD][d] = true
		}
	}
	st := SLDStats{DistinctSLDs: len(devices)}
	if len(devices) == 0 {
		return st
	}
	counts := make([]int, 0, len(devices))
	sum := 0
	for _, set := range devices {
		counts = append(counts, len(set))
		sum += len(set)
		if len(set) > st.MaxDevicesPerSLD {
			st.MaxDevicesPerSLD = len(set)
		}
	}
	sort.Ints(counts)
	st.MeanDevicesPerSLD = float64(sum) / float64(len(counts))
	st.MedianDevicesPerSLD = counts[len(counts)/2]
	return st
}

// Table16 compares certificates across vantages.
type Table16 struct {
	// Extracted counts successful probes per vantage.
	Extracted map[simnet.Vantage]int
	// SharedAcrossAll counts SNIs presenting the identical leaf at every
	// vantage.
	SharedAcrossAll int
	// ExclusivePerVantage counts SNIs whose leaf at that vantage differs
	// from some other vantage's.
	ExclusivePerVantage map[simnet.Vantage]int
}

// vantages returns the run's vantage set (primary first), defaulting to
// the paper's three for Servers assembled before the set was recorded.
func (s *Server) vantages() []simnet.Vantage {
	if len(s.Vantages) > 0 {
		return s.Vantages
	}
	return simnet.Vantages()
}

// Table16 computes the geographic consistency comparison across the
// run's vantage set.
func (s *Server) Table16() Table16 {
	out := Table16{
		Extracted:           map[simnet.Vantage]int{},
		ExclusivePerVantage: map[simnet.Vantage]int{},
	}
	vantages := s.vantages()
	for v, m := range s.ByVantage {
		out.Extracted[v] = len(m)
	}
	// SNIs probed everywhere, anchored at the primary vantage.
	for sni, primaryLeaf := range s.ByVantage[vantages[0]] {
		same := true
		for _, v := range vantages[1:] {
			leaf, ok := s.ByVantage[v][sni]
			if !ok {
				same = false
				break
			}
			if !bytes.Equal(leaf, primaryLeaf) {
				same = false
			}
		}
		if same {
			out.SharedAcrossAll++
		}
	}
	for _, v := range vantages {
		for sni, leaf := range s.ByVantage[v] {
			exclusive := false
			for _, other := range vantages {
				if other == v {
					continue
				}
				oleaf, ok := s.ByVantage[other][sni]
				if ok && !bytes.Equal(leaf, oleaf) {
					exclusive = true
				}
			}
			if exclusive {
				out.ExclusivePerVantage[v]++
			}
		}
	}
	return out
}

// ExpiredDuringCapture returns domains whose certificates had already
// expired during the ClientHello capture window yet were still visited
// (the Table 8 narrative).
func (s *Server) ExpiredDuringCapture() []DomainRow {
	return s.domainRows(func(r *CertRecord) bool {
		return r.Status == pki.StatusExpired && r.Leaf.NotAfter.Before(s.World.CaptureEnd)
	})
}
