// Package simnet is the simulated Internet for the server-side half of
// the study: a registry of TLS servers keyed by SNI, each presenting a
// real X.509 chain minted by internal/pki with the issuer, validity,
// chain-style, CDN, and reachability behaviour the paper observed in the
// wild. Probing happens over genuine crypto/tls handshakes (net.Pipe), so
// the certificate-collection pipeline exercises exactly the code path a
// live prober would.
//
// World construction is deterministic given a seed: vendor-owned domains
// are signed by the vendor's private CA or by a weighted mix of public
// trust CAs (DigiCert heaviest, as in Figure 5); Netflix gets its bimodal
// validity (30–396 days chained to a public root vs 8,150-day self-built
// chains); a handful of domains serve long-expired certificates
// (skyegloup.com, wink.com); a2.tuyaus.com omits its hostname from the
// certificate; CDN domains present vantage-specific certificates; and a
// small fraction of servers are unreachable (the paper lost 43 of 1,194).
package simnet

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/ctlog"
	"repro/internal/dataset"
	"repro/internal/par"
	"repro/internal/pki"
)

// Vantage is a probing location (the paper used New York, Frankfurt,
// Singapore).
type Vantage string

// The three vantages of Section 5.1.
const (
	VantageNewYork   Vantage = "new-york"
	VantageFrankfurt Vantage = "frankfurt"
	VantageSingapore Vantage = "singapore"
)

// Vantages lists all probing locations.
func Vantages() []Vantage {
	return []Vantage{VantageNewYork, VantageFrankfurt, VantageSingapore}
}

// Server is one TLS endpoint (an FQDN) in the simulated Internet.
type Server struct {
	// FQDN of the server.
	FQDN string
	// SLD is the second-level domain.
	SLD string
	// OwnerVendor is the device vendor owning the domain ("" for
	// third-party services).
	OwnerVendor string
	// IssuerOrg of the leaf certificate.
	IssuerOrg string
	// IssuerKind classifies the issuer.
	IssuerKind pki.CAKind
	// Leaf is the leaf certificate (shared across FQDNs in a cert group).
	Leaf pki.Certificate
	// Chain is the presented chain at the default vantage.
	Chain pki.Chain
	// VantageChains overrides the chain per vantage for CDN domains.
	VantageChains map[Vantage]pki.Chain
	// VantageLeaves holds the matching leaf (with key) per vantage.
	VantageLeaves map[Vantage]pki.Certificate
	// IPs the server resolves to (cert-sharing analysis, Section 5.1).
	IPs []string
	// Unreachable servers fail to handshake (the 43 lost SNIs).
	Unreachable bool
	// InCT reports whether the leaf was submitted to the CT log.
	InCT bool
	// Stack is the server-side TLS implementation model answering
	// handshakes (seeded per owning vendor; see serverstack.go).
	Stack *ServerStack
}

// ChainAt returns the chain presented to a vantage.
func (s *Server) ChainAt(v Vantage) pki.Chain {
	if c, ok := s.VantageChains[v]; ok {
		return c
	}
	return s.Chain
}

// World is the simulated Internet.
type World struct {
	// Seed the world was built with (drives server-stack assignment).
	Seed int64
	// Servers by FQDN.
	Servers map[string]*Server
	// CAs by organization name.
	CAs map[string]*pki.CA
	// Stores is the Mozilla/Apple/Microsoft root program set.
	Stores *pki.StoreSet
	// Log is the CT log.
	Log *ctlog.Log
	// Validator over the store set with all public intermediates known.
	Validator *pki.Validator
	// ProbeTime is the virtual "April 2022" probing instant.
	ProbeTime time.Time
	// AsOf is the firmware-drift evaluation date backend stacks were
	// assigned at (zero = the paper era; see stackForAsOf).
	AsOf time.Time
	// CaptureWindow bounds of the ClientHello dataset, for the
	// expired-during-capture analysis (Table 8).
	CaptureStart, CaptureEnd time.Time
	// faults is the optional deterministic fault-injection layer
	// (SetFaults / ClearFaults).
	faults *faultState
}

// Config parameterizes world construction.
type Config struct {
	// Seed drives deterministic assignment.
	Seed int64
	// SNIs to host. Usually dataset.SNIsByMinUsers(3).
	SNIs []string
	// ProbeTime defaults to 2022-04-15 (the paper probed in April 2022).
	ProbeTime time.Time
	// AsOf evaluates backend firmware drift at a virtual date: server
	// stacks walk their upgrade chains (stackForAsOf) when the date is
	// past the drift window start. Zero keeps the paper-era assignment.
	AsOf time.Time
	// Faults optionally installs deterministic fault injection on the
	// probe path (equivalent to calling SetFaults after Build).
	Faults *Faults
	// Workers bounds how many certificates Build mints at once. 0 means
	// GOMAXPROCS. The world is the same for any worker count.
	Workers int
}

// publicCAWeights drives the Figure 5 issuer distribution (DigiCert signs
// ~47% of leaves).
var publicCAWeights = []struct {
	org    string
	weight int
}{
	{"DigiCert", 47},
	{"Amazon", 9},
	{"Google Trust Services", 8},
	{"Let's Encrypt", 7},
	{"Sectigo", 5},
	{"GoDaddy", 4},
	{"GlobalSign", 3},
	{"Microsoft Corporation", 3},
	{"Apple", 2},
	{"Entrust", 2},
	{"Cloudflare", 2},
	{"COMODO", 2},
	{"VeriSign", 1},
	{"Gandi", 1},
	{"Starfield", 1},
	{"Baltimore", 1},
	{"IdenTrust", 1},
}

// privateCAOf maps a device vendor to the private-CA organization that
// signs its domains (the 16 vendor CAs of Section 5.2, plus Netflix which
// is private but not a device vendor).
var privateCAOf = map[string]string{
	"Roku":         "Roku",
	"Samsung":      "Samsung Electronics",
	"Nintendo":     "Nintendo",
	"Sony":         "Sony Computer Entertainment",
	"Tesla":        "Tesla Motor Services",
	"Sense":        "Sense Labs",
	"DirecTV":      "ATT Mobility and Entertainment",
	"LG":           "LG Electronics",
	"Canary":       "Canary Connect",
	"Philips":      "Philips",
	"Obihai":       "Obihai Technology",
	"Dish Network": "EchoStar",
	"Tuya":         "Tuya",
	"ecobee":       "ecobee",
}

// sldCAOverrides pins specific SLDs to issuers regardless of the owning
// vendor's default (nest.com is Nest Labs although the devices are
// Google's; ueiwsp.com is Universal Electronics although visited by
// Samsung devices; Netflix domains are Netflix's own CA).
var sldCAOverrides = map[string]string{
	"nest.com":       "Nest Labs",
	"ueiwsp.com":     "Universal Electronics",
	"netflix.com":    "Netflix",
	"netflix.net":    "Netflix",
	"meethue.com":    "Philips",
	"canaryis.com":   "Canary Connect",
	"obitalk.com":    "Obihai Technology",
	"dishaccess.tv":  "EchoStar",
	"dtvce.com":      "ATT Mobility and Entertainment",
	"tesla.services": "Tesla Motor Services",
	"sense.com":      "Sense Labs",
	"ecobee.com":     "ecobee",
	// Samsung signs most of its own operational domains...
	"samsungcloudsolution.net": "Samsung Electronics",
	"samsungcloudsolution.com": "Samsung Electronics",
	"samsungrm.net":            "Samsung Electronics",
	"samsunghrm.com":           "Samsung Electronics",
	"samsungelectronics.com":   "Samsung Electronics",
	"pavv.co.kr":               "Samsung Electronics",
	// ...but samsungotn.net via a public CA (mixed, as in Figure 5).
	"samsungotn.net":               "DigiCert",
	"roku.com":                     "Roku",
	"rokutime.com":                 "Roku",
	"nintendo.net":                 "Nintendo",
	"playstation.net":              "Sony Computer Entertainment",
	"sonyentertainmentnetwork.com": "Sony Computer Entertainment",
	"lgtvsdp.com":                  "LG Electronics",
	"tuyaus.com":                   "Tuya",
	"tuyacn.com":                   "Tuya",
	// Expired-certificate domains keep their paper issuers.
	"skyegloup.com": "Gandi",
	"wink.com":      "COMODO",
}

// privateValidityDays reproduces the extreme validity periods of
// Section 5.4 footnote 6 (days).
var privateValidityDays = map[string]int{
	"Tuya":                           36500, // 100 years
	"Samsung Electronics":            25202, // 69 years
	"EchoStar":                       24855,
	"Universal Electronics":          21946,
	"Nintendo":                       9300,
	"Roku":                           5000, // >13 years (Section 6.1)
	"Sony Computer Entertainment":    7233,
	"Tesla Motor Services":           7300,
	"Nest Labs":                      7300,
	"Sense Labs":                     9000,
	"ATT Mobility and Entertainment": 8000,
	"LG Electronics":                 7900,
	"Canary Connect":                 9125,
	"Philips":                        7400,
	"Obihai Technology":              10950,
	"ecobee":                         9600,
	"Netflix":                        8150, // the appboot.netflix.com chain
}

// expiredSLDs maps domains to their long-past NotAfter dates (Table 8).
var expiredSLDs = map[string]time.Time{
	"skyegloup.com": time.Date(2018, 7, 31, 0, 0, 0, 0, time.UTC),
	"wink.com":      time.Date(2019, 4, 17, 0, 0, 0, 0, time.UTC),
}

// cdnSLDs present vantage-specific certificates.
var cdnSLDs = map[string]bool{
	"cloudfront.net":  true,
	"akamaized.net":   true,
	"fastly.net":      true,
	"googlevideo.com": true,
	"nflxvideo.net":   true,
	"gstatic.com":     true,
	"ytimg.com":       true,
}

// caBirth is when every CA root's validity starts.
var caBirth = time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC)

// Build constructs the world for the SNI set in three passes. plan makes
// every rng draw and lists each certificate to mint and each server to
// build; mint signs the certificates across cfg.Workers; assemble builds
// the chains, logs to CT and adds the servers, in plan order. Minting
// draws nothing from the rng, so the world does not depend on the worker
// count.
func Build(cfg Config) *World {
	if cfg.ProbeTime.IsZero() {
		cfg.ProbeTime = time.Date(2022, 4, 15, 0, 0, 0, 0, time.UTC)
	}
	w := &World{
		Seed:         cfg.Seed,
		AsOf:         cfg.AsOf,
		Servers:      map[string]*Server{},
		CAs:          map[string]*pki.CA{},
		Stores:       pki.NewStoreSet(),
		Log:          ctlog.New("repro-ct", func() time.Time { return cfg.ProbeTime }),
		ProbeTime:    cfg.ProbeTime,
		CaptureStart: time.Date(2019, 4, 29, 0, 0, 0, 0, time.UTC),
		CaptureEnd:   time.Date(2020, 8, 1, 0, 0, 0, 0, time.UTC),
	}
	p := plan(cfg)
	p.mint(cfg.Workers)
	w.assemble(p)
	if cfg.Faults != nil {
		w.SetFaults(*cfg.Faults)
	}
	return w
}

// caMint is one CA the world mints: a root with one intermediate, or,
// with a parent, an intermediate chaining to the parent's root.
type caMint struct {
	name   string // key in World.CAs
	org    string
	kind   pki.CAKind
	years  int
	parent *caMint
	ca     *pki.CA       // set by mint
	done   chan struct{} // closed once ca is set
}

func (c *caMint) mint() {
	// Closed on every path: if minting panics, the jobs waiting on this
	// CA must still return for the panic to reach Build's caller.
	defer close(c.done)
	if c.parent == nil {
		c.ca = pki.NewCA(c.org, c.kind, caBirth, c.years, 1)
	} else {
		<-c.parent.done
		c.ca = pki.NewSubCA(c.org, c.kind, c.parent.ca, caBirth, c.years)
	}
}

// leafMint is one leaf certificate the world mints.
type leafMint struct {
	ca         *caMint
	spec       pki.LeafSpec
	selfSigned bool
	cert       pki.Certificate // set by mint
}

func (l *leafMint) mint() {
	<-l.ca.done
	if l.selfSigned {
		l.cert = l.ca.ca.IssueSelfSignedLeaf(l.spec)
	} else {
		l.cert = l.ca.ca.IssueLeaf(l.spec)
	}
}

// certGroup is the FQDNs of one SLD that present one leaf (wildcard/SAN
// sharing), with what their servers share.
type certGroup struct {
	sld, owner, issuerOrg string
	fqdns                 []string
	leaf                  *leafMint
	style                 pki.ChainStyle
	ips                   []string
	inCT                  bool
	// alts holds the leaves a CDN FQDN presents at Vantages()[1:].
	alts map[string][]*leafMint
	// mismatch marks the tuyaus.com host whose leaf names neither its
	// CN nor a SAN; it is never unreachable.
	mismatch bool
}

// worldPlan is what Build mints and assembles. cas and leaves are in
// mint order, groups in assembly order.
type worldPlan struct {
	cas    []*caMint
	byName map[string]*caMint
	leaves []*leafMint
	groups []*certGroup
}

// plan makes every rng draw of the world in a fixed order: per SLD in
// sorted order, the Tuya mismatch host's validity, NotBefore and IPs,
// then per certificate group its size, validity, the Netflix coin,
// NotBefore and IPs.
func plan(cfg Config) *worldPlan {
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := planCAs()

	// Vendor ownership of SLDs.
	ownerOf := map[string]string{}
	vendorOf := dataset.VendorByName()
	for _, v := range dataset.Vendors() {
		for _, sld := range v.SLDs {
			ownerOf[sld.Name] = v.Name
		}
	}

	// Group SNIs by SLD, then carve cert groups within each SLD.
	bySLD := map[string][]string{}
	for _, sni := range cfg.SNIs {
		sld := SLDOf(sni)
		bySLD[sld] = append(bySLD[sld], sni)
	}
	slds := make([]string, 0, len(bySLD))
	for sld := range bySLD {
		slds = append(slds, sld)
	}
	sort.Strings(slds)

	for _, sld := range slds {
		snis := bySLD[sld]
		sort.Strings(snis)
		owner := ownerOf[sld]
		p.planSLD(sld, snis, owner, issuerForSLD(sld, owner, vendorOf), cfg.ProbeTime, rng)
	}
	return p
}

// issuerForSLD picks the leaf issuer organization for a domain.
func issuerForSLD(sld, owner string, vendors map[string]dataset.VendorProfile) string {
	if org, ok := sldCAOverrides[sld]; ok {
		return org
	}
	if owner != "" {
		v := vendors[owner]
		if v.OnlyPrivateCA {
			return privateCAOf[owner]
		}
		if v.PrivateCA {
			// Vendor CAs sign a deterministic subset of their own domains
			// (the rest go to public CAs, as in Figure 5's mixed columns).
			if org, ok := privateCAOf[owner]; ok && hashOf(sld)%5 == 0 {
				return org
			}
		}
	}
	// Weighted public CA draw, deterministic per SLD.
	total := 0
	for _, s := range publicCAWeights {
		total += s.weight
	}
	pick := int(hashOf(sld) % uint64(total))
	for _, s := range publicCAWeights {
		pick -= s.weight
		if pick < 0 {
			return s.org
		}
	}
	return "DigiCert"
}

// planCAs lists the CAs in mint order: the public trust CAs in
// publicCAWeights order, the private CAs (device vendors + Netflix + Nest
// Labs + UEI) by name, then Netflix's public-rooted sub-CA.
func planCAs() *worldPlan {
	p := &worldPlan{byName: map[string]*caMint{}}
	add := func(name, org string, kind pki.CAKind, years int, parent *caMint) {
		c := &caMint{name: name, org: org, kind: kind, years: years, parent: parent, done: make(chan struct{})}
		p.cas = append(p.cas, c)
		p.byName[name] = c
	}
	for _, spec := range publicCAWeights {
		add(spec.org, spec.org, pki.PublicTrustCA, 30, nil)
	}
	privateOrgs := map[string]bool{"Netflix": true, "Nest Labs": true, "Universal Electronics": true}
	for _, org := range privateCAOf {
		privateOrgs[org] = true
	}
	private := make([]string, 0, len(privateOrgs))
	for org := range privateOrgs {
		private = append(private, org)
	}
	sort.Strings(private)
	for _, org := range private {
		add(org, org, pki.PrivateCA, 100, nil)
	}
	// Netflix also operates a public-rooted intermediate for its
	// short-lived leaves: "Netflix Public SHA2 RSA CA 3" chaining to the
	// VeriSign public root (Table 9).
	add("Netflix-public-chain", "Netflix", pki.PrivateCA, 25, p.byName["VeriSign"])
	return p
}

// addLeaf plans one leaf for ca to sign.
func (p *worldPlan) addLeaf(ca *caMint, spec pki.LeafSpec, selfSigned bool) *leafMint {
	l := &leafMint{ca: ca, spec: spec, selfSigned: selfSigned}
	p.leaves = append(p.leaves, l)
	return l
}

// planSLD plans the cert groups and servers of one SLD.
func (p *worldPlan) planSLD(sld string, snis []string, owner, issuerOrg string, probeTime time.Time, rng *rand.Rand) {
	ca := p.byName[issuerOrg]
	if ca == nil {
		ca, issuerOrg = p.byName["DigiCert"], "DigiCert"
	}
	// Netflix bimodality: netflix.com/netflix.net FQDNs split between the
	// self-built 8,150-day chain and 30–396-day public-rooted leaves.
	isNetflix := issuerOrg == "Netflix"

	// The Tuya CN/SAN mismatch: the first tuyaus.com host serves a
	// vendor-signed certificate naming neither its CN nor SAN (the
	// a2.tuyaus.com case of Section 5.3).
	if sld == "tuyaus.com" && len(snis) > 0 {
		validity := validityFor(issuerOrg, rng)
		notBefore := certNotBefore(sld, validity, probeTime, rng)
		g := &certGroup{sld: sld, owner: owner, issuerOrg: issuerOrg, fqdns: snis[:1], style: pki.ChainLeafOnly, mismatch: true}
		g.leaf = p.addLeaf(ca, pki.LeafSpec{
			CommonName: "tuya-iot-device",
			Org:        orgLabel(owner, issuerOrg),
			NotBefore:  notBefore,
			NotAfter:   notBefore.AddDate(0, 0, validity),
		}, true)
		g.ips = ipsFor(snis[0], rng)
		p.groups = append(p.groups, g)
		snis = snis[1:]
	}

	// Carve the FQDNs into certificate groups (wildcard/SAN sharing).
	for start := 0; start < len(snis); {
		groupSize := 1 + rng.Intn(8)
		if groupSize > len(snis)-start {
			groupSize = len(snis) - start
		}
		group := snis[start : start+groupSize]
		start += groupSize

		groupCA := ca
		validity := validityFor(issuerOrg, rng)
		netflixPublicChain := false
		if isNetflix && rng.Intn(2) == 0 {
			groupCA = p.byName["Netflix-public-chain"]
			validity = []int{30, 31, 32, 33, 34, 36, 396}[rng.Intn(7)]
			netflixPublicChain = true
		}

		notBefore := certNotBefore(sld, validity, probeTime, rng)
		spec := pki.LeafSpec{
			CommonName: group[0],
			DNSNames:   append([]string(nil), group...),
			Org:        orgLabel(owner, issuerOrg),
			NotBefore:  notBefore,
			NotAfter:   notBefore.AddDate(0, 0, validity),
		}
		// The Tuya CN/SAN mismatch: a2.tuyaus.com serves a certificate
		// that names neither the host's CN nor SAN.
		if sld == "tuyaus.com" && strings.HasPrefix(group[0], "a2.") {
			spec.CommonName = "tuya-iot-device"
			spec.DNSNames = nil
		}

		style, selfSigned := chainStyleFor(groupCA.kind, sld)
		if netflixPublicChain {
			// Short-lived Netflix leaves present a valid chain to the
			// trusted public root (Table 9).
			style, selfSigned = pki.ChainNoRoot, false
		}
		g := &certGroup{sld: sld, owner: owner, issuerOrg: issuerOrg, fqdns: group, style: style}
		g.leaf = p.addLeaf(groupCA, spec, selfSigned)
		// CT submission: public CAs log (with 8 deterministic misses
		// across the world); private CAs never do, and neither do the
		// Netflix public-chain leaves, whose sub-CA is private (Section
		// 5.4).
		g.inCT = groupCA.kind == pki.PublicTrustCA && !ctSkip(issuerOrg, group[0])
		g.ips = ipsFor(group[0], rng)
		// CDN domains present a distinct certificate per vantage.
		if cdnSLDs[sld] {
			g.alts = map[string][]*leafMint{}
			for _, fqdn := range group {
				if hashOf("cdn:"+fqdn)%3 == 0 {
					for range Vantages()[1:] {
						g.alts[fqdn] = append(g.alts[fqdn], p.addLeaf(groupCA, spec, false))
					}
				}
			}
		}
		p.groups = append(p.groups, g)
	}
}

// mint signs every planned certificate on par.For: the CAs first, in
// plan order, then the leaves. A job waits for the CA it signs under;
// that CA's job comes earlier, so it is already claimed.
func (p *worldPlan) mint(workers int) {
	par.For(workers, len(p.cas)+len(p.leaves), func(i int) {
		if i < len(p.cas) {
			p.cas[i].mint()
		} else {
			p.leaves[i-len(p.cas)].mint()
		}
	})
}

// assemble registers the minted CAs, then builds each group's chains,
// logs them to CT and adds its servers in plan order, so log indices and
// tree heads follow the plan.
func (w *World) assemble(p *worldPlan) {
	for _, c := range p.cas {
		w.CAs[c.name] = c.ca
		if c.kind == pki.PublicTrustCA {
			// Public trust CAs are rooted in all three programs.
			w.Stores.AddPublicRoot(c.ca)
		}
	}
	// Public intermediates, the Netflix one included, are known out of
	// band; they are registered in sorted name order.
	w.Validator = pki.NewValidator(w.Stores)
	names := make([]string, 0, len(w.CAs))
	for name := range w.CAs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if ca := w.CAs[name]; ca.Kind == pki.PublicTrustCA || name == "Netflix-public-chain" {
			w.Validator.AddKnownCA(ca)
		}
	}

	for _, g := range p.groups {
		ca, leaf := g.leaf.ca.ca, g.leaf.cert
		chain := ca.BuildChain(leaf, g.style)
		if g.inCT {
			w.Log.Submit(leaf.Cert)
		}
		stack := stackForAsOf(w.Seed, g.owner, g.sld, w.AsOf)
		for _, fqdn := range g.fqdns {
			srv := &Server{
				FQDN:        fqdn,
				SLD:         g.sld,
				OwnerVendor: g.owner,
				IssuerOrg:   g.issuerOrg,
				IssuerKind:  ca.Kind, // the Netflix sub-CA is private too
				Leaf:        leaf,
				Chain:       chain,
				IPs:         g.ips,
				Unreachable: !g.mismatch && hashOf("reach:"+fqdn)%28 == 0, // ~3.6%
				InCT:        g.inCT,
				Stack:       stack,
			}
			if alts := g.alts[fqdn]; alts != nil {
				srv.VantageChains = map[Vantage]pki.Chain{}
				srv.VantageLeaves = map[Vantage]pki.Certificate{}
				for i, v := range Vantages()[1:] {
					alt := alts[i].cert
					srv.VantageChains[v] = ca.BuildChain(alt, g.style)
					srv.VantageLeaves[v] = alt
					if ca.Kind == pki.PublicTrustCA {
						w.Log.Submit(alt.Cert)
					}
				}
			}
			w.Servers[fqdn] = srv
		}
	}
}

// validityFor picks the leaf validity period in days.
func validityFor(issuerOrg string, rng *rand.Rand) int {
	if days, ok := privateValidityDays[issuerOrg]; ok {
		// Samsung and Nintendo have two tiers in footnote 6.
		switch issuerOrg {
		case "Samsung Electronics":
			if rng.Intn(2) == 0 {
				return 10950
			}
		case "Nintendo":
			if rng.Intn(2) == 0 {
				return 7233
			}
		}
		return days
	}
	if issuerOrg == "Let's Encrypt" {
		return 90
	}
	// Public CAs: 90–825 days, clustered near 365–398.
	choices := []int{90, 180, 365, 365, 397, 398, 398, 730, 825}
	return choices[rng.Intn(len(choices))]
}

// certNotBefore places the validity window: expired domains anchor on
// their Table 8 dates; everything else is issued before the probe.
func certNotBefore(sld string, validityDays int, probeTime time.Time, rng *rand.Rand) time.Time {
	if expiry, ok := expiredSLDs[sld]; ok {
		return expiry.AddDate(0, 0, -validityDays)
	}
	// Issue 10–60% of the validity period before the probe time.
	frac := 0.1 + 0.5*rng.Float64()
	back := time.Duration(float64(validityDays) * frac * 24 * float64(time.Hour))
	return probeTime.Add(-back)
}

// chainStyleFor picks how a server whose leaf a CA of the given kind
// signs presents its chain, and whether that leaf is self-signed.
func chainStyleFor(kind pki.CAKind, sld string) (pki.ChainStyle, bool) {
	if kind == pki.PublicTrustCA {
		// Most public-CA servers send leaf+intermediate; a few send only
		// the leaf (incomplete chain).
		if hashOf("style:"+sld)%12 == 0 {
			return pki.ChainLeafOnly, false
		}
		return pki.ChainNoRoot, false
	}
	// Private CAs: the Table 7/14 mix of chain lengths 1, 2, 3 and
	// self-signed presentations.
	switch {
	case sld == "samsunghrm.com":
		return pki.ChainDuplicatedLeaf, true
	case sld == "ueiwsp.com" || sld == "dishaccess.tv" || sld == "tuyaus.com":
		return pki.ChainLeafOnly, true
	default:
		switch hashOf("pstyle:"+sld) % 3 {
		case 0:
			return pki.ChainLeafOnly, false
		case 1:
			return pki.ChainNoRoot, false
		default:
			return pki.ChainFull, false
		}
	}
}

// ctSkip marks the 8 public-CA certificates that never appear in CT
// (4 Microsoft, 2 Apple, 1 Sectigo, 1 DigiCert).
func ctSkip(issuerOrg, firstFQDN string) bool {
	switch issuerOrg {
	case "Microsoft Corporation":
		return hashOf("ctskip:"+firstFQDN)%3 == 0
	case "Apple":
		return hashOf("ctskip:"+firstFQDN)%3 == 0
	case "Sectigo", "DigiCert":
		return hashOf("ctskip:"+firstFQDN)%40 == 0
	default:
		return false
	}
}

// ipsFor assigns server IPs (64.96% of certs span multiple IPs; CDN certs
// span many).
func ipsFor(fqdn string, rng *rand.Rand) []string {
	n := 1
	switch r := rng.Float64(); {
	case r < 0.35:
		n = 1
	case r < 0.80:
		n = 2 + rng.Intn(6)
	case r < 0.97:
		n = 8 + rng.Intn(20)
	default:
		n = 40 + rng.Intn(54) // the max-93 tail
	}
	h := hashOf("ip:" + fqdn)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("%d.%d.%d.%d",
			10+int(h>>24&0x3F), int(h>>16&0xFF), int(h>>8&0xFF), (int(h)&0xFF+i)%256))
	}
	return out
}

// orgLabel is the subject organization on leaves.
func orgLabel(owner, issuerOrg string) string {
	if owner != "" {
		return owner
	}
	return issuerOrg
}

// SLDOf extracts the second-level domain of an FQDN (handling the
// multi-label public suffixes appearing in the dataset, e.g. co.kr): the
// last two labels, or the last three under such a suffix, or fqdn itself
// when it has no more labels than that. It scans for dots from the end
// and returns a substring, so it allocates nothing; Table 5 calls it once
// per tied SNI.
func SLDOf(fqdn string) string {
	dots := 0
	for i := len(fqdn) - 1; i >= 0; i-- {
		if fqdn[i] != '.' {
			continue
		}
		if dots++; dots < 2 {
			continue
		}
		last2 := fqdn[i+1:]
		switch last2 {
		case "co.kr", "co.uk", "com.cn", "ntp.org": // two-label suffixes seen in the dataset
			if j := strings.LastIndexByte(fqdn[:i], '.'); j >= 0 {
				return fqdn[j+1:]
			}
			return fqdn
		}
		return last2
	}
	return fqdn
}

// hashOf is a deterministic 64-bit hash for assignment decisions.
func hashOf(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
