package simnet

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"testing"

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

func BenchmarkBuildWorld(b *testing.B) {
	ds := dataset.Generate(dataset.Config{Seed: 99, Scale: 0.1})
	snis := ds.SNIsByMinUsers(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(Config{Seed: 1, SNIs: snis})
	}
}
