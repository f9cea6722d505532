// Package smarttv implements the Section 6.1 case study: certificate
// practice seen from Amazon and Roku smart TVs, using lab traffic
// captured directly from the devices. It reproduces Figure 7 (leaf
// certificates per issuer in the Amazon and Roku traffic groups) and
// Table 17 (servers presenting invalid or misconfigured chains).
package smarttv

import (
	"context"
	"sort"
	"strings"

	"repro/internal/pki"
	"repro/internal/simnet"
)

// Group identifies a traffic group.
type Group string

// The two traffic groups of Section 6.1.
const (
	GroupAmazon Group = "Amazon"
	GroupRoku   Group = "Roku"
)

// Observation is one server seen in a smart TV's traffic.
type Observation struct {
	Group     Group
	SNI       string
	SLD       string
	IssuerOrg string
	// VendorManaged: the server belongs to the TV vendor (vs a
	// third-party channel/application).
	VendorManaged bool
	Status        pki.ChainStatus
	ValidityDays  int
	InCT          bool
}

// Study is the smart-TV case study state.
type Study struct {
	Observations []Observation
}

// excluded domains per Section 6.1: amazonaws.com and amazonvideo.com are
// visited by Roku devices too, so they are excluded from the Amazon group.
var excludedFromAmazon = map[string]bool{
	"amazonaws.com":   true,
	"amazonvideo.com": true,
}

// Run captures both groups from the world. The groups contain the
// vendor's own servers plus third-party channel servers (Netflix etc.).
func Run(w *simnet.World) *Study {
	st := &Study{}
	for sni, srv := range w.Servers {
		if srv.Unreachable {
			continue
		}
		var group Group
		vendorManaged := false
		switch {
		case srv.OwnerVendor == "Amazon" && !excludedFromAmazon[srv.SLD]:
			group, vendorManaged = GroupAmazon, true
		case srv.OwnerVendor == "Roku":
			group, vendorManaged = GroupRoku, true
		case strings.HasSuffix(srv.SLD, "netflix.com") || srv.SLD == "nflxvideo.net":
			// Third-party channels appear in both groups; attribute by
			// hash for a deterministic split.
			group = GroupRoku
			if len(sni)%2 == 0 {
				group = GroupAmazon
			}
		default:
			continue
		}
		n, err := w.ProbeFastContext(context.TODO(), sni, simnet.VantageNewYork)
		if err != nil {
			continue
		}
		chain := n.Chain
		res := w.Validator.Validate(chain, sni, w.ProbeTime)
		leaf := chain.Leaf()
		st.Observations = append(st.Observations, Observation{
			Group:         group,
			SNI:           sni,
			SLD:           srv.SLD,
			IssuerOrg:     srv.IssuerOrg,
			VendorManaged: vendorManaged,
			Status:        res.Status,
			ValidityDays:  int(leaf.NotAfter.Sub(leaf.NotBefore).Hours() / 24),
			InCT:          srv.InCT,
		})
	}
	sort.Slice(st.Observations, func(i, j int) bool {
		if st.Observations[i].Group != st.Observations[j].Group {
			return st.Observations[i].Group < st.Observations[j].Group
		}
		return st.Observations[i].SNI < st.Observations[j].SNI
	})
	return st
}

// Figure7Row summarizes leaf certificates per (group, issuer).
type Figure7Row struct {
	Group   Group
	Issuer  string
	Count   int
	MinDays int
	MaxDays int
	InCT    int
	NotInCT int
}

// Figure7 aggregates validity and CT status per issuer within each group.
func (st *Study) Figure7() []Figure7Row {
	type key struct {
		g Group
		i string
	}
	rows := map[key]*Figure7Row{}
	for _, o := range st.Observations {
		k := key{o.Group, o.IssuerOrg}
		r := rows[k]
		if r == nil {
			r = &Figure7Row{Group: o.Group, Issuer: o.IssuerOrg, MinDays: o.ValidityDays, MaxDays: o.ValidityDays}
			rows[k] = r
		}
		r.Count++
		if o.ValidityDays < r.MinDays {
			r.MinDays = o.ValidityDays
		}
		if o.ValidityDays > r.MaxDays {
			r.MaxDays = o.ValidityDays
		}
		if o.InCT {
			r.InCT++
		} else {
			r.NotInCT++
		}
	}
	out := make([]Figure7Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Group != out[j].Group {
			return out[i].Group < out[j].Group
		}
		return out[i].Issuer < out[j].Issuer
	})
	return out
}

// Table17Row lists domains with an invalid or misconfigured chain.
type Table17Row struct {
	Group  Group
	Status pki.ChainStatus
	SLD    string
	FQDNs  int
}

// Table17 groups invalid/misconfigured chains per traffic group.
func (st *Study) Table17() []Table17Row {
	type key struct {
		g   Group
		st  pki.ChainStatus
		sld string
	}
	counts := map[key]int{}
	for _, o := range st.Observations {
		if o.Status == pki.StatusValid {
			continue
		}
		counts[key{o.Group, o.Status, o.SLD}]++
	}
	out := make([]Table17Row, 0, len(counts))
	for k, n := range counts {
		out = append(out, Table17Row{Group: k.g, Status: k.st, SLD: k.sld, FQDNs: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Group != out[j].Group {
			return out[i].Group < out[j].Group
		}
		if out[i].Status != out[j].Status {
			return out[i].Status < out[j].Status
		}
		return out[i].SLD < out[j].SLD
	})
	return out
}

// VendorKeyInfrastructure summarizes the Section 6.1 finding: which
// issuers each vendor's own servers use, their validity spread, and CT.
type VendorKeyInfrastructure struct {
	Group       Group
	Issuers     []string
	MinValidity int
	MaxValidity int
	AnyInCT     bool
	AllInCT     bool
}

// KeyInfrastructure computes the per-group vendor-managed summary.
func (st *Study) KeyInfrastructure() []VendorKeyInfrastructure {
	groups := map[Group]*VendorKeyInfrastructure{}
	issuers := map[Group]map[string]bool{}
	for _, o := range st.Observations {
		if !o.VendorManaged {
			continue
		}
		g := groups[o.Group]
		if g == nil {
			g = &VendorKeyInfrastructure{Group: o.Group, MinValidity: o.ValidityDays, MaxValidity: o.ValidityDays, AllInCT: true}
			groups[o.Group] = g
			issuers[o.Group] = map[string]bool{}
		}
		issuers[o.Group][o.IssuerOrg] = true
		if o.ValidityDays < g.MinValidity {
			g.MinValidity = o.ValidityDays
		}
		if o.ValidityDays > g.MaxValidity {
			g.MaxValidity = o.ValidityDays
		}
		g.AnyInCT = g.AnyInCT || o.InCT
		g.AllInCT = g.AllInCT && o.InCT
	}
	var out []VendorKeyInfrastructure
	for g, v := range groups {
		for i := range issuers[g] {
			v.Issuers = append(v.Issuers, i)
		}
		sort.Strings(v.Issuers)
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out
}
