package tlswire

// Native fuzz targets for the wire-format parsers. The checked-in seed
// corpus under testdata/fuzz/<Target>/ runs as regression cases on
// every plain `go test`; CI additionally runs each target with
// -fuzztime 10s as a smoke step. Three invariants are enforced:
//
//   - parsing never panics, and accessors on a parsed hello never
//     panic, for arbitrary input;
//   - ParseRecord and parseHandshake agree when the same handshake
//     bytes are framed in a record;
//   - Marshal∘Parse is the identity up to documented normalization
//     (absent compression methods marshal as {0}).

import (
	"bytes"
	"testing"
)

// mustMarshal builds the record for a known-good hello used as seed.
func mustMarshal(t testing.TB, ch *ClientHello) []byte {
	t.Helper()
	rec, err := ch.Marshal()
	if err != nil {
		t.Fatalf("marshal seed: %v", err)
	}
	return rec
}

func seedHello() *ClientHello {
	ch := &ClientHello{
		LegacyVersion:      VersionTLS12,
		SessionID:          []byte{1, 2, 3, 4},
		CipherSuites:       []uint16{0x1301, 0xC02F, 0x000A},
		CompressionMethods: []byte{0},
		Extensions: []Extension{
			{Type: ExtSupportedVersions, Data: []byte{2, 0x03, 0x04}},
			{Type: ExtALPN, Data: []byte{0, 5, 4, 'h', 't', 't', 'p'}},
			{Type: ExtSessionTicket, Data: nil},
		},
	}
	for i := range ch.Random {
		ch.Random[i] = byte(i)
	}
	ch.SetSNI("device.vendor.example")
	return ch
}

// checkParsed exercises every accessor of a successfully parsed hello;
// none may panic regardless of how hostile the input was.
func checkParsed(ch *ClientHello) {
	_ = ch.SNI()
	_ = ch.EffectiveVersion()
	_ = ch.ExtensionTypes()
	_ = ch.HasExtension(ExtServerName)
	_ = ch.LegacyVersion.String()
	_ = ch.LegacyVersion.Known()
	_ = ch.SupportedVersions()
	_ = ch.SupportedGroups()
	_ = ch.SignatureAlgorithms()
	_ = ch.PSKKeyExchangeModes()
	for _, ks := range ch.KeyShares() {
		_ = GroupName(ks.Group)
	}
	for _, e := range ch.Extensions {
		_ = e.Type.String()
	}
}

// checkRoundTrip asserts Marshal∘Parse is the identity on a parsed
// hello (up to compression-method normalization).
func checkRoundTrip(t *testing.T, ch *ClientHello) {
	if len(ch.CipherSuites) == 0 {
		return // parse tolerates an empty suite list; Marshal rejects it
	}
	rec, err := ch.Marshal()
	if err != nil {
		t.Fatalf("re-marshal of parsed hello failed: %v", err)
	}
	ch2, err := ParseRecord(rec)
	if err != nil {
		t.Fatalf("re-parse of marshaled hello failed: %v", err)
	}
	if ch2.LegacyVersion != ch.LegacyVersion {
		t.Fatalf("round-trip version: %v != %v", ch2.LegacyVersion, ch.LegacyVersion)
	}
	if ch2.Random != ch.Random {
		t.Fatalf("round-trip random changed")
	}
	if !bytes.Equal(ch2.SessionID, ch.SessionID) {
		t.Fatalf("round-trip session id: %x != %x", ch2.SessionID, ch.SessionID)
	}
	if len(ch2.CipherSuites) != len(ch.CipherSuites) {
		t.Fatalf("round-trip suites: %v != %v", ch2.CipherSuites, ch.CipherSuites)
	}
	for i := range ch.CipherSuites {
		if ch2.CipherSuites[i] != ch.CipherSuites[i] {
			t.Fatalf("round-trip suites: %v != %v", ch2.CipherSuites, ch.CipherSuites)
		}
	}
	comp := ch.CompressionMethods
	if len(comp) == 0 {
		comp = []byte{0} // Marshal's documented normalization
	}
	if !bytes.Equal(ch2.CompressionMethods, comp) {
		t.Fatalf("round-trip compression: %x != %x", ch2.CompressionMethods, comp)
	}
	if len(ch2.Extensions) != len(ch.Extensions) {
		t.Fatalf("round-trip extensions: %d != %d", len(ch2.Extensions), len(ch.Extensions))
	}
	for i := range ch.Extensions {
		if ch2.Extensions[i].Type != ch.Extensions[i].Type || !bytes.Equal(ch2.Extensions[i].Data, ch.Extensions[i].Data) {
			t.Fatalf("round-trip extension %d: %v != %v", i, ch2.Extensions[i], ch.Extensions[i])
		}
	}
}

func FuzzParseRecord(f *testing.F) {
	rec := mustMarshal(f, seedHello())
	f.Add(rec)
	f.Add(rec[:5])
	f.Add(rec[:len(rec)-3])
	f.Add([]byte{})
	f.Add([]byte{23, 3, 3, 0, 0})               // not a handshake
	f.Add([]byte{22, 3, 3, 0, 1, 2})            // handshake, not a ClientHello
	f.Add([]byte{22, 3, 3, 0xFF, 0xFF, 1})      // record claims more than present
	f.Add(append(bytes.Clone(rec), 0xAA, 0xBB)) // trailing garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		ch, err := ParseRecord(data)
		if err != nil {
			if ch != nil {
				t.Fatalf("non-nil hello alongside error %v", err)
			}
			return
		}
		checkParsed(ch)
		checkRoundTrip(t, ch)
	})
}

// parseHandshake parses a bare handshake message (type + 3-byte length
// + body) the way ParseRecord parses the one a record frames.
func parseHandshake(data []byte) (*ClientHello, error) {
	var v HelloView
	if err := v.readHandshake(data); err != nil {
		return nil, err
	}
	return v.hello()
}

func FuzzParseHandshake(f *testing.F) {
	rec := mustMarshal(f, seedHello())
	hs := rec[5:] // strip the record header
	f.Add(hs)
	f.Add(hs[:3])
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0}) // ServerHello type
	f.Fuzz(func(t *testing.T, data []byte) {
		ch, err := parseHandshake(data)
		if err == nil {
			checkParsed(ch)
			checkRoundTrip(t, ch)
		}
		// Differential check: the same handshake framed in a record
		// must parse to the same outcome.
		if len(data) > 0xFFFF {
			return
		}
		framed := make([]byte, 0, 5+len(data))
		framed = append(framed, 22, 3, 3, byte(len(data)>>8), byte(len(data)))
		framed = append(framed, data...)
		ch2, err2 := ParseRecord(framed)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("record framing changed outcome: %v vs %v", err, err2)
		}
		if err == nil && !bytes.Equal(mustRemarshal(t, ch), mustRemarshal(t, ch2)) {
			t.Fatalf("record framing changed parsed hello")
		}
	})
}

// mustRemarshal canonicalizes a parsed hello for comparison; an empty
// suite list (unmarshalable) compares by SNI and extension count.
func mustRemarshal(t *testing.T, ch *ClientHello) []byte {
	if len(ch.CipherSuites) == 0 {
		return []byte(ch.SNI())
	}
	rec, err := ch.Marshal()
	if err != nil {
		t.Fatalf("canonical re-marshal: %v", err)
		return nil
	}
	return rec
}

// FuzzClientHelloVsCryptoTLS is the differential target: every input is
// offered to both this package's parser and crypto/tls's (via the
// server-side ClientHelloInfo callback). Whenever the stricter stdlib
// accepts a record, tlswire must parse it too and the two views must
// agree on SNI, ciphersuites, ALPN, and supported versions. The seed
// corpus under testdata/fuzz/FuzzClientHelloVsCryptoTLS/ mirrors the
// FuzzParseRecord corpus plus a crypto/tls-generated hello.
func FuzzClientHelloVsCryptoTLS(f *testing.F) {
	rec := mustMarshal(f, seedHello())
	f.Add(rec)
	f.Add(rec[:5])
	f.Add([]byte{})
	f.Add([]byte{22, 3, 1, 0, 4, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // crypto/tls's record layer caps well below this
		}
		if diffs := CompareWithCryptoTLS(data); len(diffs) > 0 {
			t.Fatalf("oracle disagreement on %x: %v", data, diffs)
		}
	})
}

// seedHello13 is a TLS 1.3-shaped hello exercising every extension the
// 1.3 accessors decode: supported_versions, key_share (two groups),
// supported_groups, signature_algorithms, psk_key_exchange_modes.
func seedHello13() *ClientHello {
	ch := &ClientHello{
		LegacyVersion:      VersionTLS12,
		SessionID:          []byte{0xA0, 0xA1, 0xA2, 0xA3},
		CipherSuites:       []uint16{0x1301, 0x1302, 0x1303, 0xC02F},
		CompressionMethods: []byte{0},
	}
	for i := range ch.Random {
		ch.Random[i] = byte(0x13 ^ i)
	}
	ch.SetSNI("device13.vendor.example")
	ch.SetSupportedVersions([]uint16{uint16(VersionTLS13), uint16(VersionTLS12)})
	ch.SetSupportedGroups([]uint16{GroupX25519, GroupP256, GroupP384})
	ch.SetSignatureAlgorithms([]uint16{0x0403, 0x0804, 0x0401})
	ch.SetPSKKeyExchangeModes([]byte{1})
	ch.SetKeyShares([]KeyShare{
		{Group: GroupX25519, Data: bytes.Repeat([]byte{0x1D}, 32)},
		{Group: GroupP256, Data: bytes.Repeat([]byte{0x17}, 65)},
	})
	return ch
}

// FuzzClientHello13VsCryptoTLS is the TLS 1.3 differential target: the
// seed corpus is 1.3-shaped (supported_versions, key_share,
// signature_algorithms, psk_key_exchange_modes) so mutation explores the
// new extension parsers, and every input goes through the full crypto/tls
// comparison — including the supported_groups and signature_algorithms
// cross-checks — hunting one-sided strictness bugs.
func FuzzClientHello13VsCryptoTLS(f *testing.F) {
	rec13 := mustMarshal(f, seedHello13())
	f.Add(rec13)
	f.Add(rec13[:len(rec13)-7])
	// A truncated key_share list length (claims more entries than sent).
	trunc := seedHello13()
	trunc.Extensions = setExtension(trunc.Extensions, ExtKeyShare, []byte{0xFF, 0xFF, 0x00, 0x1D})
	f.Add(mustMarshal(f, trunc))
	// HRR-style bare-group payload in a ClientHello position.
	bare := seedHello13()
	bare.Extensions = setExtension(bare.Extensions, ExtKeyShare, []byte{0x00, 0x1D})
	f.Add(mustMarshal(f, bare))
	// GREASE versions and groups mixed into the offers.
	grease := seedHello13()
	grease.SetSupportedVersions([]uint16{0x0A0A, uint16(VersionTLS13), uint16(VersionTLS12)})
	grease.SetSupportedGroups([]uint16{0x1A1A, GroupX25519, GroupP256})
	f.Add(mustMarshal(f, grease))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // crypto/tls's record layer caps well below this
		}
		if diffs := CompareWithCryptoTLS(data); len(diffs) > 0 {
			t.Fatalf("1.3 oracle disagreement on %x: %v", data, diffs)
		}
		if ch, err := ParseRecord(data); err == nil {
			checkParsed(ch)
		}
	})
}

// FuzzMarshalParse drives the round trip from the structured side:
// arbitrary field values that Marshal accepts must parse back to the
// same hello.
func FuzzMarshalParse(f *testing.F) {
	f.Add(uint16(0x0303), []byte{1, 2}, []byte{0x13, 0x01, 0xC0, 0x2F}, []byte{0}, uint16(0), []byte("\x00\x04\x00\x00\x01a"))
	f.Add(uint16(0x0304), []byte{}, []byte{0x13, 0x03}, []byte{}, uint16(43), []byte{2, 3, 4})
	f.Add(uint16(0x0300), []byte{9}, []byte{0, 10}, []byte{1, 0}, uint16(0xFF01), []byte{0})
	f.Fuzz(func(t *testing.T, version uint16, sessionID, suites, comp []byte, extType uint16, extData []byte) {
		ch := &ClientHello{
			LegacyVersion:      Version(version),
			SessionID:          sessionID,
			CompressionMethods: comp,
			Extensions:         []Extension{{Type: ExtensionType(extType), Data: extData}},
		}
		for i := 0; i+1 < len(suites); i += 2 {
			ch.CipherSuites = append(ch.CipherSuites, uint16(suites[i])<<8|uint16(suites[i+1]))
		}
		rec, err := ch.Marshal()
		if err != nil {
			return // Marshal rejected the shape; nothing to verify
		}
		ch2, err := ParseRecord(rec)
		if err != nil {
			t.Fatalf("marshaled hello does not parse: %v", err)
		}
		checkParsed(ch2)
		checkRoundTrip(t, ch2)
		if ch2.LegacyVersion != ch.LegacyVersion {
			t.Fatalf("version: %v != %v", ch2.LegacyVersion, ch.LegacyVersion)
		}
		if len(ch2.CipherSuites) != len(ch.CipherSuites) {
			t.Fatalf("suites: %v != %v", ch2.CipherSuites, ch.CipherSuites)
		}
	})
}
