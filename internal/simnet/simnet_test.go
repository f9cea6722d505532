package simnet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/pki"
)

// smallWorld builds a world over a reduced SNI set.
func smallWorld(t testing.TB) *World {
	t.Helper()
	ds := dataset.Generate(dataset.Config{Seed: 99, Scale: 0.15})
	return Build(Config{Seed: 1, SNIs: ds.SNIsByMinUsers(2)})
}

func TestSLDOf(t *testing.T) {
	cases := map[string]string{
		"api.roku.com":      "roku.com",
		"a2.tuyaus.com":     "tuyaus.com",
		"cdn.pavv.co.kr":    "pavv.co.kr",
		"roku.com":          "roku.com",
		"x.y.z.amazon.com":  "amazon.com",
		"time.pool.ntp.org": "pool.ntp.org",
		"api.roku.com.":     "com.",
		"a..roku.com":       "roku.com",
		"a..com":            ".com",
		"co.uk":             "co.uk",
		"a.co.uk":           "a.co.uk",
		"pool.ntp.org":      "pool.ntp.org",
		"localhost":         "localhost",
		"":                  "",
	}
	for in, want := range cases {
		if got := SLDOf(in); got != want {
			t.Errorf("SLDOf(%q)=%q want %q", in, got, want)
		}
	}
}

func TestWorldDeterminism(t *testing.T) {
	snis := []string{"api.roku.com", "ota.roku.com", "api.wyzecam.com", "cloud.netflix.com"}
	a := Build(Config{Seed: 5, SNIs: snis})
	b := Build(Config{Seed: 5, SNIs: snis})
	for _, sni := range snis {
		sa, sb := a.Servers[sni], b.Servers[sni]
		if sa == nil || sb == nil {
			t.Fatalf("missing server %s", sni)
		}
		if sa.IssuerOrg != sb.IssuerOrg || sa.Unreachable != sb.Unreachable {
			t.Fatalf("%s: nondeterministic assignment", sni)
		}
		if sa.Leaf.Cert.NotAfter != sb.Leaf.Cert.NotAfter {
			t.Fatalf("%s: nondeterministic validity", sni)
		}
	}
}

// paperSNIs is the SNI set a default paper-scale study at seed 20231024
// probes; that study builds its world with seed 20231025.
func paperSNIs() []string {
	return dataset.Generate(dataset.Config{Seed: 20231024, Scale: 1}).SNIsByMinUsers(3)
}

// TestBuildWorkersInvariant builds the paper-scale world of seed
// 20231024, in the paper era and as of 2025-08-01, at several worker
// counts. Each world's key-independent digest is the same at every
// count and equals the pinned one, which the single-goroutine Build that
// preceded the mint pool also gave; every leaf carries the spec its plan
// gave it and names the key of the CA signer its plan chose; and every
// adjacent pair of every presented chain verifies.
func TestBuildWorkersInvariant(t *testing.T) {
	snis := paperSNIs()
	cases := []struct {
		name   string
		asOf   time.Time
		digest string
	}{
		{"paper", time.Time{}, "738c9ee17fb3b009f6e5cdacfb0241ea672c452bfb5dff5c9c12a79c22f6b89b"},
		{"asof=2025-08-01", time.Date(2025, 8, 1, 0, 0, 0, 0, time.UTC), "50932b468b48259c9b28318539df981405bf085ef40042995ba3b88ea4272aee"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The default probe time, set so the reference plan sees it.
			cfg := Config{Seed: 20231025, SNIs: snis, AsOf: c.asOf, ProbeTime: time.Date(2022, 4, 15, 0, 0, 0, 0, time.UTC)}
			ref := plan(cfg)
			counts := []int{1, 2, 4}
			if n := runtime.GOMAXPROCS(0); !slices.Contains(counts, n) {
				counts = append(counts, n)
			}
			first := ""
			for _, workers := range counts {
				cfg.Workers = workers
				w := Build(cfg)
				got := worldDigest(t, w)
				switch {
				case first == "" && got != c.digest:
					t.Errorf("workers=%d: world digest %s, pinned %s; update the pin only if the world was meant to change", workers, got, c.digest)
				case first != "" && got != first:
					t.Errorf("workers=%d: world digest %s, workers=1 gave %s", workers, got, first)
				}
				if first == "" {
					first = got
				}
				checkPlannedLeaves(t, w, ref)
				checkChainSignatures(t, w)
			}
		})
	}
}

// worldDigest hashes what a world shows apart from its keys, serials and
// signatures, which differ on every build: per FQDN in sorted order, the
// issuer org and kind, the leaf's CN, O, SANs and validity, the subject
// and issuer of each certificate of the default and each vantage chain,
// the IPs, reachability, CT flag and stack; then the CT log's entries in
// log order.
func worldDigest(t *testing.T, w *World) string {
	t.Helper()
	h := sha256.New()
	logged := make([]*x509.Certificate, w.Log.Size())
	note := func(cert *x509.Certificate) {
		if idx, _, err := w.Log.InclusionProofForCert(cert); err == nil {
			logged[idx] = cert
		}
	}
	writeChain := func(c pki.Chain) {
		for _, cert := range c.Certs {
			fmt.Fprintf(h, "[%s <- %s]", cert.Subject, cert.Issuer)
		}
	}
	for _, fqdn := range sortedFQDNs(w) {
		s := w.Servers[fqdn]
		leaf := s.Leaf.Cert
		fmt.Fprintf(h, "%s|%s|%v|%s|%q|%q|%s|%s|", fqdn, s.IssuerOrg, s.IssuerKind,
			leaf.Subject.CommonName, leaf.Subject.Organization, leaf.DNSNames,
			leaf.NotBefore.UTC().Format(time.RFC3339), leaf.NotAfter.UTC().Format(time.RFC3339))
		writeChain(s.Chain)
		note(leaf)
		for _, v := range Vantages() {
			if c, ok := s.VantageChains[v]; ok {
				fmt.Fprintf(h, "|%s:", v)
				writeChain(c)
				note(c.Leaf())
			}
		}
		fmt.Fprintf(h, "|%q|%v|%v|%s\n", s.IPs, s.Unreachable, s.InCT, s.Stack.Name)
	}
	for i, cert := range logged {
		if cert == nil {
			t.Fatalf("CT log entry %d is no server's certificate", i)
		}
		fmt.Fprintf(h, "ct %d %s <- %s %q %s %s\n", i, cert.Subject, cert.Issuer, cert.DNSNames,
			cert.NotBefore.UTC().Format(time.RFC3339), cert.NotAfter.UTC().Format(time.RFC3339))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkPlannedLeaves checks every leaf w presents against the plan: it
// has the planned CN, O, SANs and validity, and a CA-signed leaf's
// AuthorityKeyId is the SubjectKeyId of its planned CA's signer (a
// self-signed leaf verifies under its own key instead).
func checkPlannedLeaves(t *testing.T, w *World, p *worldPlan) {
	t.Helper()
	servers := 0
	for _, g := range p.groups {
		for _, fqdn := range g.fqdns {
			servers++
			srv := w.Servers[fqdn]
			if srv == nil {
				t.Errorf("%s: planned but not built", fqdn)
				continue
			}
			checkPlannedLeaf(t, w, fqdn, srv.Leaf.Cert, g.leaf)
			alts := g.alts[fqdn]
			if len(srv.VantageLeaves) != len(alts) {
				t.Errorf("%s: %d vantage leaves, planned %d", fqdn, len(srv.VantageLeaves), len(alts))
				continue
			}
			for i, alt := range alts {
				v := Vantages()[i+1]
				checkPlannedLeaf(t, w, fmt.Sprintf("%s@%s", fqdn, v), srv.VantageLeaves[v].Cert, alt)
			}
		}
	}
	if servers != len(w.Servers) {
		t.Errorf("world has %d servers, plan %d", len(w.Servers), servers)
	}
}

func checkPlannedLeaf(t *testing.T, w *World, where string, leaf *x509.Certificate, want *leafMint) {
	t.Helper()
	s := want.spec
	if leaf.Subject.CommonName != s.CommonName || !slices.Equal(leaf.Subject.Organization, []string{s.Org}) ||
		!slices.Equal(leaf.DNSNames, s.DNSNames) ||
		!leaf.NotBefore.Equal(s.NotBefore.Truncate(time.Second)) || !leaf.NotAfter.Equal(s.NotAfter.Truncate(time.Second)) {
		t.Errorf("%s: leaf %q %q %v %v..%v, planned %q %q %v %v..%v", where,
			leaf.Subject.CommonName, leaf.Subject.Organization, leaf.DNSNames, leaf.NotBefore, leaf.NotAfter,
			s.CommonName, s.Org, s.DNSNames, s.NotBefore, s.NotAfter)
	}
	if want.selfSigned {
		if err := leaf.CheckSignature(leaf.SignatureAlgorithm, leaf.RawTBSCertificate, leaf.Signature); err != nil {
			t.Errorf("%s: planned self-signed, but the leaf does not verify under its own key: %v", where, err)
		}
		return
	}
	ca := w.CAs[want.ca.name]
	if ca == nil {
		t.Fatalf("%s: planned CA %q is not in the world", where, want.ca.name)
	}
	signer := ca.Root.Cert
	if len(ca.Intermediates) > 0 {
		signer = ca.Intermediates[0].Cert
	}
	if len(signer.SubjectKeyId) == 0 || !bytes.Equal(leaf.AuthorityKeyId, signer.SubjectKeyId) {
		t.Errorf("%s: leaf AuthorityKeyId %x, planned signer %q has SubjectKeyId %x",
			where, leaf.AuthorityKeyId, signer.Subject, signer.SubjectKeyId)
	}
}

// checkChainSignatures verifies every adjacent pair of every chain w
// presents: each certificate is signed by the next one. CheckSignatureFrom
// takes only CA parents, so the duplicated self-signed leaf of the
// samsunghrm.com chain is checked against its own key.
func checkChainSignatures(t *testing.T, w *World) {
	t.Helper()
	checked := map[[2]*x509.Certificate]bool{}
	for _, fqdn := range sortedFQDNs(w) {
		srv := w.Servers[fqdn]
		chains := []pki.Chain{srv.Chain}
		for _, v := range Vantages() {
			if c, ok := srv.VantageChains[v]; ok {
				chains = append(chains, c)
			}
		}
		for _, c := range chains {
			for i := 0; i+1 < len(c.Certs); i++ {
				child, parent := c.Certs[i], c.Certs[i+1]
				pair := [2]*x509.Certificate{child, parent}
				if checked[pair] {
					continue
				}
				checked[pair] = true
				var err error
				if parent.IsCA || !bytes.Equal(child.Raw, parent.Raw) {
					err = child.CheckSignatureFrom(parent)
				} else {
					err = parent.CheckSignature(child.SignatureAlgorithm, child.RawTBSCertificate, child.Signature)
				}
				if err != nil {
					t.Errorf("%s: %q does not verify under %q: %v", fqdn, child.Subject, parent.Subject, err)
				}
			}
		}
	}
}

// sortedFQDNs lists w's servers in sorted order.
func sortedFQDNs(w *World) []string {
	fqdns := make([]string, 0, len(w.Servers))
	for fqdn := range w.Servers {
		fqdns = append(fqdns, fqdn)
	}
	sort.Strings(fqdns)
	return fqdns
}

func TestVendorPrivateCAs(t *testing.T) {
	w := smallWorld(t)
	checks := map[string]string{
		"roku.com":      "Roku",
		"canaryis.com":  "Canary Connect",
		"tuyaus.com":    "Tuya",
		"obitalk.com":   "Obihai Technology",
		"nintendo.net":  "Nintendo",
		"nest.com":      "Nest Labs",
		"ueiwsp.com":    "Universal Electronics",
		"skyegloup.com": "Gandi",
		"wink.com":      "COMODO",
	}
	found := map[string]bool{}
	for _, srv := range w.Servers {
		if want, ok := checks[srv.SLD]; ok {
			found[srv.SLD] = true
			if srv.IssuerOrg != want {
				t.Errorf("%s issued by %s want %s", srv.FQDN, srv.IssuerOrg, want)
			}
		}
	}
	for sld := range checks {
		if !found[sld] {
			t.Logf("note: no server under %s in this scaled world", sld)
		}
	}
}

func TestRealTLSProbeMatchesFast(t *testing.T) {
	w := smallWorld(t)
	ctx := context.Background()
	n := 0
	for sni, srv := range w.Servers {
		if srv.Unreachable {
			continue
		}
		if n++; n > 25 {
			break
		}
		real, err := w.ProbeContext(ctx, sni, VantageNewYork)
		if err != nil {
			t.Fatalf("probe %s: %v", sni, err)
		}
		fast, err := w.ProbeFastContext(ctx, sni, VantageNewYork)
		if err != nil {
			t.Fatal(err)
		}
		if len(real.Chain.Certs) != len(fast.Chain.Certs) {
			t.Fatalf("%s: chain lengths differ (%d vs %d)", sni, len(real.Chain.Certs), len(fast.Chain.Certs))
		}
		for i := range real.Chain.Certs {
			if !bytes.Equal(real.Chain.Certs[i].Raw, fast.Chain.Certs[i].Raw) {
				t.Fatalf("%s: cert %d differs between real TLS and fast path", sni, i)
			}
		}
	}
	if n == 0 {
		t.Fatal("no reachable servers probed")
	}
}

// TestProbeErrors runs every World probe path against an unknown host,
// an unreachable host and a host whose every attempt hits an injected
// connection reset. The paths share one set of checks, so each case
// fails with the same error on each path — and in that order: a fault
// schedule never masks an unknown or unreachable host.
func TestProbeErrors(t *testing.T) {
	w := smallWorld(t)
	var reachable []string
	for sni, srv := range w.Servers {
		if !srv.Unreachable {
			reachable = append(reachable, sni)
		}
	}
	if len(reachable) < 2 {
		t.Fatalf("need two reachable servers, world has %d", len(reachable))
	}
	sort.Strings(reachable)
	faulty, unreachable := reachable[0], reachable[1]
	w.Servers[unreachable].Unreachable = true
	w.SetFaults(Faults{Seed: 1, TransientRate: 1, ResetFraction: 1})

	paths := []struct {
		name  string
		probe func(ctx context.Context, sni string) error
	}{
		{"ProbeContext", func(ctx context.Context, sni string) error {
			_, err := w.ProbeContext(ctx, sni, VantageNewYork)
			return err
		}},
		{"ProbeFastContext", func(ctx context.Context, sni string) error {
			_, err := w.ProbeFastContext(ctx, sni, VantageNewYork)
			return err
		}},
		{"NegotiateFast", func(ctx context.Context, sni string) error {
			_, err := w.NegotiateFast(ctx, sni, VantageNewYork, newEvidenceHello())
			return err
		}},
	}
	cases := []struct {
		name, sni string
		want      error
	}{
		{"unknown", "no-such-host.invalid", ErrUnknownHost},
		{"unreachable", unreachable, ErrUnreachable},
		{"fault", faulty, ErrConnReset},
	}
	for _, c := range cases {
		for _, p := range paths {
			t.Run(c.name+"/"+p.name, func(t *testing.T) {
				if err := p.probe(context.Background(), c.sni); !errors.Is(err, c.want) {
					t.Fatalf("%s(%s) = %v, want %v", p.name, c.sni, err, c.want)
				}
			})
		}
	}
}

func TestExpiredDomains(t *testing.T) {
	w := smallWorld(t)
	for _, srv := range w.Servers {
		if exp, ok := map[string]bool{"skyegloup.com": true, "wink.com": true}[srv.SLD]; ok && exp {
			if !srv.Leaf.Cert.NotAfter.Before(w.CaptureStart.AddDate(0, 0, 365)) {
				t.Errorf("%s should be long expired, NotAfter=%v", srv.FQDN, srv.Leaf.Cert.NotAfter)
			}
		}
	}
}

func TestCTDiscipline(t *testing.T) {
	w := smallWorld(t)
	for _, srv := range w.Servers {
		logged := w.Log.Contains(srv.Leaf.Cert)
		if srv.IssuerKind == pki.PrivateCA && logged {
			t.Errorf("%s: private-CA cert logged in CT", srv.FQDN)
		}
		if logged != srv.InCT {
			t.Errorf("%s: InCT flag %v but log says %v", srv.FQDN, srv.InCT, logged)
		}
	}
}

func TestPrivateValidityLong(t *testing.T) {
	w := smallWorld(t)
	sawPrivate := false
	for _, srv := range w.Servers {
		days := int(srv.Leaf.Cert.NotAfter.Sub(srv.Leaf.Cert.NotBefore).Hours() / 24)
		if srv.IssuerKind == pki.PrivateCA && srv.IssuerOrg != "Netflix" {
			sawPrivate = true
			if days < 1000 {
				t.Errorf("%s (%s): private validity only %d days", srv.FQDN, srv.IssuerOrg, days)
			}
		}
		if srv.IssuerKind == pki.PublicTrustCA && srv.SLD != "skyegloup.com" && srv.SLD != "wink.com" {
			if days > 1000 {
				t.Errorf("%s (%s): public validity %d days > 1000", srv.FQDN, srv.IssuerOrg, days)
			}
		}
	}
	if !sawPrivate {
		t.Fatal("no private-CA servers in world")
	}
}

func TestCDNVantageVariation(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: 99, Scale: 0.5})
	w := Build(Config{Seed: 1, SNIs: ds.SNIsByMinUsers(2)})
	ctx := context.Background()
	varied := 0
	for sni, srv := range w.Servers {
		if srv.Unreachable || srv.VantageChains == nil {
			continue
		}
		ny, err := w.ProbeFastContext(ctx, sni, VantageNewYork)
		if err != nil {
			t.Fatal(err)
		}
		fra, err := w.ProbeFastContext(ctx, sni, VantageFrankfurt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ny.Chain.Certs[0].Raw, fra.Chain.Certs[0].Raw) {
			varied++
		}
	}
	if varied == 0 {
		t.Error("no CDN vantage variation observed")
	}
}

func TestValidatorClassifiesWorld(t *testing.T) {
	w := smallWorld(t)
	ctx := context.Background()
	counts := map[pki.ChainStatus]int{}
	for sni, srv := range w.Servers {
		if srv.Unreachable {
			continue
		}
		n, err := w.ProbeFastContext(ctx, sni, VantageNewYork)
		if err != nil {
			t.Fatal(err)
		}
		res := w.Validator.Validate(n.Chain, sni, w.ProbeTime)
		counts[res.Status]++
	}
	if counts[pki.StatusValid] == 0 {
		t.Error("no valid chains in world")
	}
	if counts[pki.StatusUntrustedRoot]+counts[pki.StatusSelfSigned] == 0 {
		t.Error("no private-root/self-signed chains in world")
	}
	t.Logf("status distribution: %v", counts)
}

func BenchmarkRealProbe(b *testing.B) {
	ds := dataset.Generate(dataset.Config{Seed: 99, Scale: 0.1})
	w := Build(Config{Seed: 1, SNIs: ds.SNIsByMinUsers(2)})
	var sni string
	for s, srv := range w.Servers {
		if !srv.Unreachable {
			sni = s
			break
		}
	}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.ProbeContext(ctx, sni, VantageNewYork); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorld keeps the benchmarked world reachable.
var benchWorld *World

// BenchmarkBuildWorld builds a scale-0.1 world, and the paper-scale
// world of seed 20231024 on one worker and on GOMAXPROCS (skipped under
// -short).
func BenchmarkBuildWorld(b *testing.B) {
	b.Run("scale=0.1", func(b *testing.B) {
		ds := dataset.Generate(dataset.Config{Seed: 99, Scale: 0.1})
		snis := ds.SNIsByMinUsers(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchWorld = Build(Config{Seed: 1, SNIs: snis})
		}
	})
	for _, c := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run("scale=1/"+c.name, func(b *testing.B) {
			if testing.Short() {
				b.Skip("paper-scale world builds are skipped under -short")
			}
			snis := paperSNIs()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchWorld = Build(Config{Seed: 20231025, SNIs: snis, Workers: c.workers})
			}
		})
	}
}
