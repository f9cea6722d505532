package pki

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"sync"
	"time"

	"repro/internal/obs"
)

// Validator validates presented chains against the major trust stores,
// reproducing the Zeek-based pipeline of Section 5.3. KnownIntermediates
// lets the validator distinguish "incomplete chain" (a public-CA leaf whose
// server forgot the intermediates) from "untrusted root".
//
// Validate is safe for concurrent use. The chain-construction verdict
// (the ECDSA-heavy part) is cached per distinct (chain bytes, time), so
// certificates shared across many FQDNs — the dominant pattern in the
// probed world — pay for signature verification once, even when their
// FQDNs are validated concurrently.
type Validator struct {
	stores *StoreSet
	// knownIntermediates is the out-of-band intermediate pool (the study
	// effectively had this through AIA fetching / cached intermediates).
	knownIntermediates *x509.CertPool
	hasIntermediates   bool

	trustMu    sync.Mutex
	trustCache map[[sha256.Size]byte]*trustEntry

	// Pre-resolved metric handles (nil when uninstrumented; every method
	// on a nil handle no-ops).
	mCacheHits   *obs.Counter
	mCacheMisses *obs.Counter
	mVerdicts    map[ChainStatus]*obs.Counter
}

// Instrument attaches trust-cache hit/miss counters and per-status
// verdict tallies to the registry. Call it before concurrent use of
// Validate; a nil registry leaves the validator uninstrumented.
func (v *Validator) Instrument(m *obs.Registry) {
	if m == nil {
		return
	}
	v.mCacheHits = m.Counter("pki_trust_cache_hits_total")
	v.mCacheMisses = m.Counter("pki_trust_cache_misses_total")
	v.mVerdicts = map[ChainStatus]*obs.Counter{}
	for _, st := range []ChainStatus{
		StatusValid, StatusIncompleteChain, StatusUntrustedRoot,
		StatusSelfSigned, StatusExpired, StatusCNMismatch,
	} {
		v.mVerdicts[st] = m.Counter("pki_verdicts_total", obs.L("status", st.String()))
	}
}

// NewValidator creates a validator over the store set.
func NewValidator(stores *StoreSet) *Validator {
	return &Validator{
		stores:             stores,
		knownIntermediates: x509.NewCertPool(),
		trustCache:         map[[sha256.Size]byte]*trustEntry{},
	}
}

// trustEntry is one trust-cache slot. The first caller for a key puts
// the entry in the cache before verifying and computes the verdict
// inside once; a concurrent caller for the same key finds the entry
// and blocks in once.Do until the verdict is set. So each distinct
// chain is verified exactly once and counts one miss, and the hit and
// miss counters do not depend on how many callers run at once.
type trustEntry struct {
	once   sync.Once
	status ChainStatus
}

// AddKnownIntermediate registers an intermediate certificate available out
// of band. Registering an intermediate invalidates cached chain verdicts,
// since incomplete chains may now verify.
func (v *Validator) AddKnownIntermediate(cert *x509.Certificate) {
	v.knownIntermediates.AddCert(cert)
	v.hasIntermediates = true
	v.trustMu.Lock()
	v.trustCache = map[[sha256.Size]byte]*trustEntry{}
	v.trustMu.Unlock()
}

// AddKnownCA registers every intermediate of a CA.
func (v *Validator) AddKnownCA(ca *CA) {
	for _, ic := range ca.Intermediates {
		v.AddKnownIntermediate(ic.Cert)
	}
}

// Result is the outcome of validating one presented chain.
type Result struct {
	Status ChainStatus
	// ChainLength is the number of certificates the server presented.
	ChainLength int
	// LeafIssuerOrg is the organization of the leaf's issuer.
	LeafIssuerOrg string
	// RootInStores reports whether a store contains the chain's anchor.
	RootInStores bool
}

// Validate classifies the presented chain for the given SNI at time now.
// The precedence follows the paper's reporting: expiry dominates (Table 8
// rows are reported as expired regardless of other problems), then CN
// mismatch, then chain construction problems.
func (v *Validator) Validate(chain Chain, sni string, now time.Time) Result {
	res := Result{ChainLength: chain.Len()}
	leaf := chain.Leaf()
	if leaf == nil {
		res.Status = StatusIncompleteChain
		v.mVerdicts[res.Status].Inc()
		return res
	}
	res.LeafIssuerOrg = issuerOrg(leaf)
	res.RootInStores = v.stores.ContainsOrg(res.LeafIssuerOrg)

	if now.After(leaf.NotAfter) || now.Before(leaf.NotBefore) {
		res.Status = StatusExpired
		v.mVerdicts[res.Status].Inc()
		return res
	}
	if sni != "" && leaf.VerifyHostname(sni) != nil {
		res.Status = StatusCNMismatch
		v.mVerdicts[res.Status].Inc()
		return res
	}

	// Everything below depends only on the chain bytes and the validation
	// time — never on the SNI — so the verdict is shared across every FQDN
	// presenting the same chain.
	key := trustCacheKey(chain, now)
	v.trustMu.Lock()
	e := v.trustCache[key]
	if e == nil {
		e = &trustEntry{}
		v.trustCache[key] = e
	}
	v.trustMu.Unlock()
	miss := false
	e.once.Do(func() {
		e.status = v.trustStatus(chain, leaf, res.RootInStores, now)
		miss = true
	})
	res.Status = e.status
	if miss {
		v.mCacheMisses.Inc()
	} else {
		v.mCacheHits.Inc()
	}
	v.mVerdicts[res.Status].Inc()
	return res
}

// trustCacheKey hashes the presented chain bytes and the validation time.
func trustCacheKey(chain Chain, now time.Time) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(now.UnixNano()))
	h.Write(buf[:])
	for _, c := range chain.Certs {
		binary.BigEndian.PutUint64(buf[:], uint64(len(c.Raw)))
		h.Write(buf[:])
		h.Write(c.Raw)
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// trustStatus classifies chain construction for a non-expired,
// hostname-matching chain: the ECDSA-heavy, SNI-independent part of
// Validate.
func (v *Validator) trustStatus(chain Chain, leaf *x509.Certificate, rootInStores bool, now time.Time) ChainStatus {
	// Assemble the intermediate pool from the presented chain.
	presented := x509.NewCertPool()
	presentedHasSelfSigned := false
	for _, c := range chain.Certs[1:] {
		presented.AddCert(c)
		if isSelfIssued(c) {
			presentedHasSelfSigned = true
		}
	}

	verify := func(roots *x509.CertPool, inters *x509.CertPool) bool {
		_, err := leaf.Verify(x509.VerifyOptions{
			Roots:         roots,
			Intermediates: inters,
			CurrentTime:   now,
			KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
		})
		return err == nil
	}

	roots := v.stores.UnionPool()
	if verify(roots, presented) {
		return StatusValid
	}

	// Self-signed leaf: identical issuer and subject.
	if isSelfIssued(leaf) {
		return StatusSelfSigned
	}

	// Duplicated-leaf chains (log.samsunghrm.com) collapse to self-signed
	// when every presented certificate is byte-identical to the leaf.
	if chain.Len() > 1 && allSameCert(chain.Certs) {
		return StatusSelfSigned
	}

	// Would the chain verify with out-of-band intermediates? Then the
	// server merely presented an incomplete chain.
	if v.hasIntermediates && verify(roots, v.knownIntermediates) {
		return StatusIncompleteChain
	}
	// A structurally complete chain ending in a self-signed root that is
	// not in the stores is the "untrusted root CA" case.
	if presentedHasSelfSigned {
		return StatusUntrustedRoot
	}

	// Private-CA chains presented without their root: the anchor is not
	// fetchable from any public program, so this is an untrusted root when
	// the issuer is not a public-store org; otherwise the public-CA server
	// sent an incomplete chain.
	if rootInStores {
		return StatusIncompleteChain
	}
	return StatusUntrustedRoot
}

// issuerOrg extracts the issuer organization (falling back to the issuer
// CN when the organization is absent).
func issuerOrg(c *x509.Certificate) string {
	if len(c.Issuer.Organization) > 0 {
		return c.Issuer.Organization[0]
	}
	return c.Issuer.CommonName
}

// IssuerOrg is the exported form of issuerOrg.
func IssuerOrg(c *x509.Certificate) string { return issuerOrg(c) }

// isSelfIssued reports whether issuer and subject are identical.
func isSelfIssued(c *x509.Certificate) bool {
	return bytes.Equal(c.RawIssuer, c.RawSubject)
}

// IsSelfIssued is the exported form of isSelfIssued.
func IsSelfIssued(c *x509.Certificate) bool { return isSelfIssued(c) }

func allSameCert(certs []*x509.Certificate) bool {
	for _, c := range certs[1:] {
		if !bytes.Equal(c.Raw, certs[0].Raw) {
			return false
		}
	}
	return true
}
