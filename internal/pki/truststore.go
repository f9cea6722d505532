package pki

import (
	"crypto/x509"
	"sync"
)

// TrustStore models one root program (Mozilla / Apple / Microsoft): a set
// of trusted root certificates plus the issuer-organization index used for
// the public-vs-private classification of Section 5.2.
type TrustStore struct {
	// Name of the program ("Mozilla", "Apple", "Microsoft").
	Name string

	roots []*x509.Certificate
	orgs  map[string]bool
}

// NewTrustStore creates an empty store.
func NewTrustStore(name string) *TrustStore {
	return &TrustStore{Name: name, orgs: map[string]bool{}}
}

// AddRoot registers a CA's root in the program.
func (ts *TrustStore) AddRoot(ca *CA) {
	ts.roots = append(ts.roots, ca.Root.Cert)
	ts.orgs[ca.Org] = true
}

// Len returns the number of roots in the program.
func (ts *TrustStore) Len() int { return len(ts.roots) }

// ContainsOrg reports whether the issuer organization has a root in the
// program.
func (ts *TrustStore) ContainsOrg(org string) bool { return ts.orgs[org] }

// StoreSet bundles the three major root programs the study validated
// against (Zeek's default Mozilla store supplemented with Apple and
// Microsoft).
type StoreSet struct {
	Stores []*TrustStore

	unionMu  sync.Mutex
	union    *x509.CertPool
	unionLen int
}

// NewStoreSet creates the Mozilla+Apple+Microsoft set.
func NewStoreSet() *StoreSet {
	return &StoreSet{Stores: []*TrustStore{
		NewTrustStore("Mozilla"),
		NewTrustStore("Apple"),
		NewTrustStore("Microsoft"),
	}}
}

// AddPublicRoot registers a public trust CA in every program (the paper's
// public CAs are in all three major stores).
func (s *StoreSet) AddPublicRoot(ca *CA) {
	for _, ts := range s.Stores {
		ts.AddRoot(ca)
	}
}

// UnionPool returns a pool containing every root of every program. The
// pool is rebuilt only when roots have been added since the last call;
// roots are append-only, so the total count is a sufficient freshness
// check. Callers must not mutate the returned pool.
func (s *StoreSet) UnionPool() *x509.CertPool {
	total := 0
	for _, ts := range s.Stores {
		total += len(ts.roots)
	}
	s.unionMu.Lock()
	defer s.unionMu.Unlock()
	if s.union != nil && s.unionLen == total {
		return s.union
	}
	pool := x509.NewCertPool()
	for _, ts := range s.Stores {
		for _, c := range ts.roots {
			pool.AddCert(c)
		}
	}
	s.union, s.unionLen = pool, total
	return pool
}

// ContainsOrg reports whether any program trusts the issuer organization.
func (s *StoreSet) ContainsOrg(org string) bool {
	for _, ts := range s.Stores {
		if ts.ContainsOrg(org) {
			return true
		}
	}
	return false
}
