package tlswire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleHello() *ClientHello {
	ch := &ClientHello{
		LegacyVersion: VersionTLS12,
		CipherSuites:  []uint16{0xC02F, 0xC030, 0xC013, 0xC014, 0x009C, 0x002F, 0x000A, 0x00FF},
		SessionID:     []byte{1, 2, 3, 4},
		Extensions: []Extension{
			{Type: ExtSupportedGroups, Data: []byte{0, 4, 0, 23, 0, 24}},
			{Type: ExtECPointFormats, Data: []byte{1, 0}},
			{Type: ExtSessionTicket},
			{Type: ExtSignatureAlgorithms, Data: []byte{0, 4, 4, 1, 4, 3}},
			{Type: ExtRenegotiationInfo, Data: []byte{0}},
		},
	}
	copy(ch.Random[:], bytes.Repeat([]byte{0xAB}, 32))
	ch.SetSNI("api.example-iot.com")
	return ch
}

func TestMarshalParseRoundTrip(t *testing.T) {
	ch := sampleHello()
	rec, err := ch.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got.LegacyVersion != ch.LegacyVersion {
		t.Errorf("version %v want %v", got.LegacyVersion, ch.LegacyVersion)
	}
	if !reflect.DeepEqual(got.CipherSuites, ch.CipherSuites) {
		t.Errorf("suites %v want %v", got.CipherSuites, ch.CipherSuites)
	}
	if !bytes.Equal(got.SessionID, ch.SessionID) {
		t.Errorf("session id mismatch")
	}
	if got.SNI() != "api.example-iot.com" {
		t.Errorf("sni %q", got.SNI())
	}
	if len(got.Extensions) != len(ch.Extensions) {
		t.Fatalf("ext count %d want %d", len(got.Extensions), len(ch.Extensions))
	}
	for i := range got.Extensions {
		if got.Extensions[i].Type != ch.Extensions[i].Type {
			t.Errorf("ext %d type %v want %v", i, got.Extensions[i].Type, ch.Extensions[i].Type)
		}
	}
}

func TestSetSNIReplaces(t *testing.T) {
	ch := sampleHello()
	ch.SetSNI("other.example.net")
	if ch.SNI() != "other.example.net" {
		t.Fatalf("sni %q", ch.SNI())
	}
	n := 0
	for _, e := range ch.Extensions {
		if e.Type == ExtServerName {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("want exactly one server_name extension, got %d", n)
	}
}

func TestSNIAbsent(t *testing.T) {
	ch := &ClientHello{LegacyVersion: VersionTLS10, CipherSuites: []uint16{0x002F}}
	if ch.SNI() != "" {
		t.Fatal("SNI should be empty")
	}
}

func TestNoExtensionsRoundTrip(t *testing.T) {
	ch := &ClientHello{LegacyVersion: VersionSSL30, CipherSuites: []uint16{0x0004, 0x0005, 0x000A}}
	rec, err := ch.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got.LegacyVersion != VersionSSL30 || len(got.Extensions) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestEffectiveVersion(t *testing.T) {
	ch := sampleHello()
	if v := ch.EffectiveVersion(); v != VersionTLS12 {
		t.Fatalf("effective %v", v)
	}
	// Add supported_versions carrying 1.3 + GREASE.
	ch.Extensions = append(ch.Extensions, Extension{
		Type: ExtSupportedVersions,
		Data: []byte{6, 0x0A, 0x0A, 0x03, 0x04, 0x03, 0x03},
	})
	if v := ch.EffectiveVersion(); v != VersionTLS13 {
		t.Fatalf("effective %v want TLS 1.3", v)
	}
}

func TestExtensionTypesAndHas(t *testing.T) {
	ch := sampleHello()
	types := ch.ExtensionTypes()
	if len(types) != len(ch.Extensions) {
		t.Fatal("length mismatch")
	}
	if !ch.HasExtension(ExtSessionTicket) {
		t.Fatal("session_ticket should be present")
	}
	if ch.HasExtension(ExtEarlyData) {
		t.Fatal("early_data should be absent")
	}
}

func TestVersionStrings(t *testing.T) {
	cases := map[Version]string{
		VersionSSL30:    "SSL 3.0",
		VersionTLS10:    "TLS 1.0",
		VersionTLS11:    "TLS 1.1",
		VersionTLS12:    "TLS 1.2",
		VersionTLS13:    "TLS 1.3",
		Version(0x0305): "TLS(0x0305)",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%04x => %q want %q", uint16(v), v.String(), want)
		}
	}
	if !VersionTLS12.Known() || Version(0x0299).Known() {
		t.Fatal("Known() wrong")
	}
}

func TestExtensionTypeString(t *testing.T) {
	if ExtServerName.String() != "server_name" {
		t.Fatal("server_name name wrong")
	}
	if ExtensionType(0x1A1A).String() != "grease_0x1A1A" {
		t.Fatalf("grease name: %s", ExtensionType(0x1A1A).String())
	}
	if ExtensionType(999).String() != "extension_999" {
		t.Fatalf("unknown name: %s", ExtensionType(999).String())
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseRecord(nil); err != ErrTruncated {
		t.Errorf("nil: %v", err)
	}
	if _, err := ParseRecord([]byte{23, 3, 3, 0, 0}); err != ErrNotHandshake {
		t.Errorf("appdata: %v", err)
	}
	// Handshake record with wrong handshake type.
	rec := []byte{22, 3, 3, 0, 4, 2, 0, 0, 0}
	if _, err := ParseRecord(rec); err != ErrNotClientHello {
		t.Errorf("serverhello: %v", err)
	}
	// Declared record length beyond buffer.
	if _, err := ParseRecord([]byte{22, 3, 3, 0xFF, 0xFF, 1}); err != ErrTruncated {
		t.Errorf("overlong: %v", err)
	}
}

func TestMarshalValidation(t *testing.T) {
	ch := &ClientHello{LegacyVersion: VersionTLS12}
	if _, err := ch.Marshal(); err == nil {
		t.Fatal("empty suite list should fail")
	}
	ch.CipherSuites = []uint16{0xC02F}
	// Session ids above the RFC's 32 bytes are tolerated (crypto/tls
	// accepts them, so the measurement parser must too) but one length
	// byte caps the encodable range at 255.
	ch.SessionID = make([]byte, 33)
	if rec, err := ch.Marshal(); err != nil {
		t.Fatalf("33-byte session id should marshal: %v", err)
	} else if ch2, err := ParseRecord(rec); err != nil || len(ch2.SessionID) != 33 {
		t.Fatalf("33-byte session id round-trip: %v", err)
	}
	ch.SessionID = make([]byte, 256)
	if _, err := ch.Marshal(); err == nil {
		t.Fatal("unencodable session id should fail")
	}
}

func TestParseTruncatedBodies(t *testing.T) {
	ch := sampleHello()
	rec, err := ch.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix of the record must fail cleanly, never panic.
	for i := 0; i < len(rec); i++ {
		if _, err := ParseRecord(rec[:i]); err == nil {
			// A prefix may parse successfully only if it is itself a
			// complete record (cannot happen for strict prefixes here
			// because the outer length field covers the whole message).
			t.Fatalf("prefix %d parsed successfully", i)
		}
	}
}

// Property: marshal→parse is the identity on the fingerprint-relevant
// fields for arbitrary generated hellos.
func TestPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ch := &ClientHello{LegacyVersion: []Version{VersionSSL30, VersionTLS10, VersionTLS11, VersionTLS12}[r.Intn(4)]}
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			ch.CipherSuites = append(ch.CipherSuites, uint16(r.Intn(0xFFFF)))
		}
		for i := 0; i < r.Intn(8); i++ {
			data := make([]byte, r.Intn(20))
			r.Read(data)
			ch.Extensions = append(ch.Extensions, Extension{Type: ExtensionType(r.Intn(60000)), Data: data})
		}
		r.Read(ch.Random[:])
		rec, err := ch.Marshal()
		if err != nil {
			return false
		}
		got, err := ParseRecord(rec)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(got.CipherSuites, ch.CipherSuites) {
			return false
		}
		if got.LegacyVersion != ch.LegacyVersion {
			return false
		}
		if len(got.Extensions) != len(ch.Extensions) {
			return false
		}
		for i := range got.Extensions {
			if got.Extensions[i].Type != ch.Extensions[i].Type ||
				!bytes.Equal(got.Extensions[i].Data, ch.Extensions[i].Data) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the parser never panics on arbitrary bytes.
func TestPropertyParseNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = ParseRecord(data)
		_, _ = parseHandshake(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	ch := sampleHello()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	rec, err := sampleHello().Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
}
