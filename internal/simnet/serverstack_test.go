package simnet

import (
	"context"
	"testing"

	"repro/internal/tlswire"
)

func stackTestWorld(t *testing.T) *World {
	t.Helper()
	return Build(Config{Seed: 42, SNIs: []string{
		"api.roku.com", "scribe.logs.roku.com", "time.samsungcloudsolution.com",
		"lcprd1.samsungcloudsolution.net", "api.sense.com", "cdn.fastly.net",
		"ocsp.digicert.com", "a2.tuyaus.com", "m2.tuyaus.com",
	}})
}

func TestEveryServerHasStack(t *testing.T) {
	w := stackTestWorld(t)
	for fqdn, srv := range w.Servers {
		if srv.Stack == nil {
			t.Fatalf("server %s has no stack model", fqdn)
		}
	}
}

func TestStackAssignmentVendorCoherentAndSeeded(t *testing.T) {
	w := stackTestWorld(t)
	byVendor := map[string]string{}
	for fqdn, srv := range w.Servers {
		if srv.OwnerVendor == "" {
			continue
		}
		if prev, ok := byVendor[srv.OwnerVendor]; ok && prev != srv.Stack.Name {
			t.Fatalf("vendor %s runs both %s and %s (at %s)", srv.OwnerVendor, prev, srv.Stack.Name, fqdn)
		}
		byVendor[srv.OwnerVendor] = srv.Stack.Name
	}
	// Same seed reproduces the assignment exactly.
	w2 := stackTestWorld(t)
	for fqdn, srv := range w.Servers {
		if got := w2.Servers[fqdn].Stack.Name; got != srv.Stack.Name {
			t.Fatalf("stack for %s changed across identical builds: %s vs %s", fqdn, srv.Stack.Name, got)
		}
	}
}

func TestStackAssignmentCoversModels(t *testing.T) {
	// Across a modest synthetic SLD population, every modeled stack must
	// be reachable by assignment — otherwise the confusion matrix has
	// dead rows.
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		st := stackFor(1, "", string(rune('a'+i%26))+"x"+string(rune('0'+i/26))+".example")
		seen[st.Name] = true
	}
	for _, st := range ServerStacks() {
		if !seen[st.Name] {
			t.Errorf("stack %s never assigned across 64 domains", st.Name)
		}
	}
}

func TestEvidenceHelloAcceptedByAllStacks(t *testing.T) {
	// The passive probe path annotates chains with stack evidence; that
	// only works if no modeled stack refuses the canonical hello.
	for _, st := range ServerStacks() {
		sh, alert := st.Respond(evidenceHello)
		if alert != nil {
			t.Fatalf("%s refuses the evidence hello: %v", st.Name, alert)
		}
		if sh.CipherSuite == 0 {
			t.Fatalf("%s selected no cipher", st.Name)
		}
	}
}

func TestRespondSelectionPolicies(t *testing.T) {
	baseline := newEvidenceHello()
	reversed := newEvidenceHello()
	for i, j := 0, len(reversed.CipherSuites)-1; i < j; i, j = i+1, j-1 {
		reversed.CipherSuites[i], reversed.CipherSuites[j] = reversed.CipherSuites[j], reversed.CipherSuites[i]
	}
	wolf := ServerStackByName("wolfssl")
	shA, _ := wolf.Respond(baseline)
	shB, _ := wolf.Respond(reversed)
	if shA.CipherSuite == shB.CipherSuite {
		t.Fatalf("client-order stack ignored the client's order: %04x both ways", shA.CipherSuite)
	}
	ossl := ServerStackByName("openssl-1.0.2")
	shA, _ = ossl.Respond(baseline)
	shB, _ = ossl.Respond(reversed)
	if shA.CipherSuite != shB.CipherSuite {
		t.Fatalf("server-order stack followed the client's order: %04x vs %04x", shA.CipherSuite, shB.CipherSuite)
	}
}

func TestRespondVersionNegotiation(t *testing.T) {
	tls13 := newEvidenceHello()
	tls13.CipherSuites = append([]uint16{0x1301, 0x1302, 0x1303}, tls13.CipherSuites...)
	tls13.Extensions = append(tls13.Extensions, tlswire.Extension{
		Type: tlswire.ExtSupportedVersions, Data: []byte{4, 0x03, 0x04, 0x03, 0x03},
	})
	ssl3 := &tlswire.ClientHello{
		LegacyVersion:      tlswire.VersionSSL30,
		CipherSuites:       []uint16{0x0035, 0x002F, 0x000A},
		CompressionMethods: []byte{0},
	}

	for _, tc := range []struct {
		stack       string
		wantTLS13   bool
		wantSSL3Err bool
	}{
		{"openssl-1.1.1", true, true},
		{"gotls", true, true},
		{"openssl-1.0.2", false, false},
		{"embedded-legacy", false, false},
	} {
		st := ServerStackByName(tc.stack)
		sh, alert := st.Respond(tls13)
		if alert != nil {
			t.Fatalf("%s refused the 1.3 hello: %v", tc.stack, alert)
		}
		got13 := sh.SelectedVersion() == tlswire.VersionTLS13
		if got13 != tc.wantTLS13 {
			t.Errorf("%s negotiated %v for the 1.3 hello, want tls13=%v", tc.stack, sh.SelectedVersion(), tc.wantTLS13)
		}
		sh, alert = st.Respond(ssl3)
		if tc.wantSSL3Err {
			if alert == nil {
				t.Errorf("%s accepted an SSL 3.0 hello (negotiated %v)", tc.stack, sh.SelectedVersion())
			}
		} else if alert != nil {
			t.Errorf("%s refused the SSL 3.0 hello: %v", tc.stack, alert)
		}
	}
}

func TestNegotiateFastEvidence(t *testing.T) {
	w := stackTestWorld(t)
	ctx := context.Background()
	var reachable string
	for fqdn, srv := range w.Servers {
		if !srv.Unreachable {
			reachable = fqdn
			break
		}
	}
	if reachable == "" {
		t.Fatal("no reachable server in test world")
	}
	n, err := w.NegotiateFast(ctx, reachable, VantageNewYork, newEvidenceHello())
	if err != nil {
		t.Fatalf("NegotiateFast: %v", err)
	}
	if n.Alert != nil {
		t.Fatalf("evidence hello refused: %v", n.Alert)
	}
	if n.Chain.Len() == 0 || n.Cipher == 0 || n.Version == 0 {
		t.Fatalf("incomplete negotiation evidence: %+v", n)
	}
	// A hello with no cipher overlap yields an alert, nil error, empty chain.
	junk := &tlswire.ClientHello{
		LegacyVersion:      tlswire.VersionTLS12,
		CipherSuites:       []uint16{0x0019, 0x001B},
		CompressionMethods: []byte{0},
	}
	n, err = w.NegotiateFast(ctx, reachable, VantageNewYork, junk)
	if err != nil {
		t.Fatalf("NegotiateFast(junk): %v", err)
	}
	if n.Alert == nil || n.Chain.Len() != 0 {
		t.Fatalf("junk hello should alert with no chain, got %+v", n)
	}
}
