// Package tlswire implements the TLS record and handshake wire format
// needed by the study: serializing and parsing ClientHello messages,
// including the extensions IoT Inspector records (SNI, ALPN, session
// tickets, renegotiation info, OCSP status requests, padding, GREASE,
// supported_versions) across protocol versions SSL 3.0 through TLS 1.3.
//
// The encoder produces byte-exact records suitable for feeding into real
// TLS servers or passive parsers; the parser is tolerant of unknown
// extensions and ciphersuites the way a measurement pipeline must be.
package tlswire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is a TLS protocol version codepoint.
type Version uint16

// Protocol version codepoints.
const (
	VersionSSL30 Version = 0x0300
	VersionTLS10 Version = 0x0301
	VersionTLS11 Version = 0x0302
	VersionTLS12 Version = 0x0303
	VersionTLS13 Version = 0x0304
)

// String returns the usual protocol name ("TLS 1.2", "SSL 3.0").
func (v Version) String() string {
	switch v {
	case VersionSSL30:
		return "SSL 3.0"
	case VersionTLS10:
		return "TLS 1.0"
	case VersionTLS11:
		return "TLS 1.1"
	case VersionTLS12:
		return "TLS 1.2"
	case VersionTLS13:
		return "TLS 1.3"
	default:
		return fmt.Sprintf("TLS(0x%04X)", uint16(v))
	}
}

// Known reports whether v is a defined SSL/TLS version.
func (v Version) Known() bool {
	return v >= VersionSSL30 && v <= VersionTLS13
}

// ExtensionType is a TLS extension type codepoint.
type ExtensionType uint16

// Extension type codepoints used by the study.
const (
	ExtServerName           ExtensionType = 0
	ExtMaxFragmentLength    ExtensionType = 1
	ExtStatusRequest        ExtensionType = 5
	ExtSupportedGroups      ExtensionType = 10
	ExtECPointFormats       ExtensionType = 11
	ExtSignatureAlgorithms  ExtensionType = 13
	ExtALPN                 ExtensionType = 16
	ExtSignedCertTimestamp  ExtensionType = 18
	ExtPadding              ExtensionType = 21
	ExtEncryptThenMAC       ExtensionType = 22
	ExtExtendedMasterSecret ExtensionType = 23
	ExtSessionTicket        ExtensionType = 35
	ExtPreSharedKey         ExtensionType = 41
	ExtEarlyData            ExtensionType = 42
	ExtSupportedVersions    ExtensionType = 43
	ExtCookie               ExtensionType = 44
	ExtPSKKeyExchangeModes  ExtensionType = 45
	ExtCertAuthorities      ExtensionType = 47
	ExtKeyShare             ExtensionType = 51
	ExtNextProtoNeg         ExtensionType = 13172
	ExtRenegotiationInfo    ExtensionType = 0xFF01
)

// extNames maps codepoints to IANA-ish names for reporting.
var extNames = map[ExtensionType]string{
	ExtServerName:           "server_name",
	ExtMaxFragmentLength:    "max_fragment_length",
	ExtStatusRequest:        "status_request",
	ExtSupportedGroups:      "supported_groups",
	ExtECPointFormats:       "ec_point_formats",
	ExtSignatureAlgorithms:  "signature_algorithms",
	ExtALPN:                 "application_layer_protocol_negotiation",
	ExtSignedCertTimestamp:  "signed_certificate_timestamp",
	ExtPadding:              "padding",
	ExtEncryptThenMAC:       "encrypt_then_mac",
	ExtExtendedMasterSecret: "extended_master_secret",
	ExtSessionTicket:        "session_ticket",
	ExtPreSharedKey:         "pre_shared_key",
	ExtEarlyData:            "early_data",
	ExtSupportedVersions:    "supported_versions",
	ExtCookie:               "cookie",
	ExtPSKKeyExchangeModes:  "psk_key_exchange_modes",
	ExtCertAuthorities:      "certificate_authorities",
	ExtKeyShare:             "key_share",
	ExtNextProtoNeg:         "next_protocol_negotiation",
	ExtRenegotiationInfo:    "renegotiation_info",
}

// String returns the extension name when known.
func (e ExtensionType) String() string {
	if n, ok := extNames[e]; ok {
		return n
	}
	if IsGREASEExtension(uint16(e)) {
		return fmt.Sprintf("grease_0x%04X", uint16(e))
	}
	return fmt.Sprintf("extension_%d", uint16(e))
}

// IsGREASEExtension reports whether the extension codepoint is a GREASE
// value per RFC 8701.
func IsGREASEExtension(id uint16) bool {
	hi := byte(id >> 8)
	lo := byte(id)
	return hi == lo && hi&0x0F == 0x0A
}

// Extension is a raw TLS extension.
type Extension struct {
	Type ExtensionType
	Data []byte
}

// ClientHello is the parsed/serializable form of a TLS ClientHello
// handshake message.
type ClientHello struct {
	// LegacyVersion is the client_version field (for TLS 1.3 this stays
	// 0x0303 and supported_versions carries 0x0304).
	LegacyVersion Version
	// Random is the 32-byte client random.
	Random [32]byte
	// SessionID is the legacy session id (0..32 bytes).
	SessionID []byte
	// CipherSuites is the proposed suite list in preference order.
	CipherSuites []uint16
	// CompressionMethods is the legacy compression list (usually {0}).
	CompressionMethods []byte
	// Extensions in order of appearance.
	Extensions []Extension
}

// Record layer constants.
const (
	recordTypeHandshake   = 22
	handshakeClientHello  = 1
	maxHandshakeLen       = 1 << 17 // generous; ClientHellos are small
	maxCipherSuiteListLen = 1 << 15
)

// Common parse errors.
var (
	ErrTruncated      = errors.New("tlswire: message truncated")
	ErrNotHandshake   = errors.New("tlswire: record is not a handshake")
	ErrNotClientHello = errors.New("tlswire: handshake is not a ClientHello")
	ErrMalformed      = errors.New("tlswire: malformed message")
)

// SNI returns the first host_name entry in the server_name extension, or ""
// when absent.
func (ch *ClientHello) SNI() string {
	for _, ext := range ch.Extensions {
		if ext.Type != ExtServerName {
			continue
		}
		d := ext.Data
		if len(d) < 2 {
			return ""
		}
		listLen := int(binary.BigEndian.Uint16(d))
		d = d[2:]
		if listLen > len(d) {
			return ""
		}
		for len(d) >= 3 {
			nameType := d[0]
			nameLen := int(binary.BigEndian.Uint16(d[1:3]))
			d = d[3:]
			if nameLen > len(d) {
				return ""
			}
			if nameType == 0 {
				return string(d[:nameLen])
			}
			d = d[nameLen:]
		}
	}
	return ""
}

// SetSNI appends (or replaces) a server_name extension carrying host.
func (ch *ClientHello) SetSNI(host string) {
	data := make([]byte, 0, 5+len(host))
	data = appendUint16(data, uint16(3+len(host))) // server_name_list length
	data = append(data, 0)                         // host_name
	data = appendUint16(data, uint16(len(host)))
	data = append(data, host...)
	for i := range ch.Extensions {
		if ch.Extensions[i].Type == ExtServerName {
			ch.Extensions[i].Data = data
			return
		}
	}
	ch.Extensions = append(ch.Extensions, Extension{Type: ExtServerName, Data: data})
}

// ExtensionTypes returns the extension type codepoints in order. This is
// the "extension types" component of the study's fingerprint 3-tuple.
func (ch *ClientHello) ExtensionTypes() []uint16 {
	out := make([]uint16, len(ch.Extensions))
	for i, e := range ch.Extensions {
		out[i] = uint16(e.Type)
	}
	return out
}

// HasExtension reports whether the hello carries an extension of type t.
func (ch *ClientHello) HasExtension(t ExtensionType) bool {
	for _, e := range ch.Extensions {
		if e.Type == t {
			return true
		}
	}
	return false
}

// EffectiveVersion returns the highest version the hello proposes: the max
// of supported_versions when present (ignoring GREASE), else LegacyVersion.
func (ch *ClientHello) EffectiveVersion() Version {
	best := ch.LegacyVersion
	for _, e := range ch.Extensions {
		if e.Type == ExtSupportedVersions {
			best = MaxSupported(best, e.Data)
		}
	}
	return best
}

// MaxSupported is EffectiveVersion's step for one supported_versions
// payload: the highest of best and every known, non-GREASE version the
// payload lists. A payload whose length byte overruns it changes
// nothing. A hello read in place applies the same step to each
// supported_versions extension its walk meets.
func MaxSupported(best Version, payload []byte) Version {
	if len(payload) < 1 {
		return best
	}
	n := int(payload[0])
	d := payload[1:]
	if n > len(d) {
		return best
	}
	for i := 0; i+1 < n; i += 2 {
		v := Version(binary.BigEndian.Uint16(d[i:]))
		if IsGREASEExtension(uint16(v)) {
			continue
		}
		if v.Known() && v > best {
			best = v
		}
	}
	return best
}

// Marshal serializes the ClientHello as a complete TLS record
// (record header + handshake header + body).
func (ch *ClientHello) Marshal() ([]byte, error) {
	body, err := ch.marshalBody()
	if err != nil {
		return nil, err
	}
	if len(body) > maxHandshakeLen {
		return nil, fmt.Errorf("tlswire: ClientHello too large (%d bytes)", len(body))
	}
	recVer := ch.LegacyVersion
	if recVer > VersionTLS12 {
		recVer = VersionTLS12 // TLS 1.3 records claim 1.2 on the wire
	}
	// Record header: type(1) + version(2) + length(2), then the handshake
	// header: type(1) + length(3). Exact capacity: one allocation total.
	rec := make([]byte, 0, 9+len(body))
	rec = append(rec, recordTypeHandshake)
	rec = appendUint16(rec, uint16(recVer))
	rec = appendUint16(rec, uint16(4+len(body)))
	rec = append(rec, handshakeClientHello)
	rec = append(rec, byte(len(body)>>16), byte(len(body)>>8), byte(len(body)))
	rec = append(rec, body...)
	return rec, nil
}

func (ch *ClientHello) marshalBody() ([]byte, error) {
	// One length byte: 255 is the encodable maximum. Parse tolerates the
	// same range, so Marshal∘Parse stays an identity on parsed hellos.
	if len(ch.SessionID) > 255 {
		return nil, fmt.Errorf("tlswire: session id too long (%d)", len(ch.SessionID))
	}
	if len(ch.CipherSuites) == 0 {
		return nil, errors.New("tlswire: no ciphersuites")
	}
	if 2*len(ch.CipherSuites) > maxCipherSuiteListLen {
		return nil, errors.New("tlswire: ciphersuite list too long")
	}
	comp := ch.CompressionMethods
	if len(comp) == 0 {
		comp = []byte{0}
	}
	if len(comp) > 255 {
		return nil, fmt.Errorf("tlswire: compression list too long (%d)", len(comp))
	}
	// Size the buffer exactly so the whole body is one allocation: the
	// extensions block length is known up front, so extensions append
	// directly into b with no intermediate buffer.
	extLen := 0
	if len(ch.Extensions) > 0 {
		for _, e := range ch.Extensions {
			if len(e.Data) > 0xFFFF {
				return nil, fmt.Errorf("tlswire: extension %v too long", e.Type)
			}
			extLen += 4 + len(e.Data)
		}
		if extLen > 0xFFFF {
			return nil, errors.New("tlswire: extensions block too long")
		}
	}
	n := 2 + len(ch.Random) + 1 + len(ch.SessionID) + 2 + 2*len(ch.CipherSuites) + 1 + len(comp)
	if len(ch.Extensions) > 0 {
		n += 2 + extLen
	}
	b := make([]byte, 0, n)
	b = appendUint16(b, uint16(ch.LegacyVersion))
	b = append(b, ch.Random[:]...)
	b = append(b, byte(len(ch.SessionID)))
	b = append(b, ch.SessionID...)
	b = appendUint16(b, uint16(2*len(ch.CipherSuites)))
	for _, cs := range ch.CipherSuites {
		b = appendUint16(b, cs)
	}
	b = append(b, byte(len(comp)))
	b = append(b, comp...)
	if len(ch.Extensions) > 0 {
		b = appendUint16(b, uint16(extLen))
		for _, e := range ch.Extensions {
			b = appendUint16(b, uint16(e.Type))
			b = appendUint16(b, uint16(len(e.Data)))
			b = append(b, e.Data...)
		}
	}
	return b, nil
}

// ParseRecord parses a full TLS record assumed to contain a ClientHello.
// It reads the record through ViewRecord and its extension walk, then
// copies the view, so it accepts exactly the records a view accepts.
func ParseRecord(data []byte) (*ClientHello, error) {
	v, err := ViewRecord(data)
	if err != nil {
		return nil, err
	}
	return v.hello()
}

// HelloView is a ClientHello read in place: every field aliases the wire
// bytes it was read from, so reading one allocates nothing. ViewRecord
// checks every length field up to the extension block, and the
// extension walk checks each extension's header as it reaches it.
// ParseRecord runs the same two steps, so a record whose view and walk
// succeed is exactly a record ParseRecord accepts.
type HelloView struct {
	// LegacyVersion is the client_version field.
	LegacyVersion Version
	// Suites is the ciphersuite list as sent: two big-endian bytes per
	// suite.
	Suites []byte
	// random, sessionID and compression are the client random, the
	// legacy session id and the legacy compression list; exts is the
	// extension block, without its length.
	random, sessionID, compression, exts []byte
}

// ViewRecord reads a full TLS record assumed to contain a ClientHello,
// without copying it. Walk the extensions with Extensions.
func ViewRecord(data []byte) (v HelloView, err error) {
	if len(data) < 5 {
		return v, ErrTruncated
	}
	if data[0] != recordTypeHandshake {
		return v, ErrNotHandshake
	}
	recLen := int(binary.BigEndian.Uint16(data[3:5]))
	if 5+recLen > len(data) {
		return v, ErrTruncated
	}
	err = v.readHandshake(data[5 : 5+recLen])
	return v, err
}

// readHandshake reads a handshake message (type + 3-byte length + body)
// expected to be a ClientHello into v. The readers fill v in place:
// returning the view by value from each would copy it at every level.
func (v *HelloView) readHandshake(data []byte) error {
	if len(data) < 4 {
		return ErrTruncated
	}
	if data[0] != handshakeClientHello {
		return ErrNotClientHello
	}
	bodyLen := int(data[1])<<16 | int(data[2])<<8 | int(data[3])
	if 4+bodyLen > len(data) {
		return ErrTruncated
	}
	return v.readBody(data[4 : 4+bodyLen])
}

func (v *HelloView) readBody(b []byte) error {
	if len(b) < 2+32+1 {
		return ErrTruncated
	}
	v.LegacyVersion = Version(binary.BigEndian.Uint16(b))
	v.random = b[2:34:34]
	b = b[34:]
	sidLen := int(b[0])
	b = b[1:]
	// RFC 5246 caps legacy_session_id at 32 bytes, but crypto/tls's server
	// parser tolerates anything the length byte can express and real
	// middleboxes have been seen padding it — a measurement parser must
	// not be stricter than the stacks it observes (found by the
	// crypto/tls differential oracle).
	if sidLen > len(b) {
		return ErrTruncated
	}
	v.sessionID = b[:sidLen:sidLen]
	b = b[sidLen:]
	if len(b) < 2 {
		return ErrTruncated
	}
	csLen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if csLen%2 != 0 {
		return ErrMalformed
	}
	if csLen > len(b) {
		return ErrTruncated
	}
	v.Suites = b[:csLen:csLen]
	b = b[csLen:]
	if len(b) < 1 {
		return ErrTruncated
	}
	compLen := int(b[0])
	b = b[1:]
	if compLen > len(b) {
		return ErrTruncated
	}
	v.compression = b[:compLen:compLen]
	b = b[compLen:]
	if len(b) == 0 {
		return nil // extensions are optional (SSL3/old stacks)
	}
	if len(b) < 2 {
		return ErrTruncated
	}
	extLen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if extLen > len(b) {
		return ErrTruncated
	}
	v.exts = b[:extLen:extLen]
	return nil
}

// Extensions returns a walk over the view's extensions, in order.
func (v *HelloView) Extensions() ExtensionWalk { return ExtensionWalk{rest: v.exts} }

// ExtensionWalk steps through an extension block, checking each entry's
// header against what is left of the block.
type ExtensionWalk struct {
	rest []byte
	err  error
}

// Next returns the next extension's type and payload, which aliases the
// wire bytes. ok is false at the end of the block, and at an entry that
// overruns it; Err tells the two apart.
func (w *ExtensionWalk) Next() (t ExtensionType, data []byte, ok bool) {
	r := w.rest
	if len(r) >= 4 {
		if end := 4 + (int(r[2])<<8 | int(r[3])); end <= len(r) {
			w.rest = r[end:]
			return ExtensionType(r[0])<<8 | ExtensionType(r[1]), r[4:end:end], true
		}
	}
	if len(r) > 0 {
		w.rest, w.err = nil, ErrTruncated
	}
	return 0, nil, false
}

// Err returns the error that ended the walk, or nil if it reached the
// end of the block.
func (w *ExtensionWalk) Err() error { return w.err }

// hello copies the view into a ClientHello that owns its bytes.
func (v *HelloView) hello() (*ClientHello, error) {
	ch := &ClientHello{LegacyVersion: v.LegacyVersion}
	copy(ch.Random[:], v.random)
	ch.SessionID = append([]byte(nil), v.sessionID...)
	ch.CipherSuites = make([]uint16, len(v.Suites)/2)
	for i := range ch.CipherSuites {
		ch.CipherSuites[i] = binary.BigEndian.Uint16(v.Suites[2*i:])
	}
	// A first walk checks the block and counts extensions and payload
	// bytes: the extension slice and one shared payload backing then
	// allocate exactly once, instead of growing per extension.
	nExt, dataLen := 0, 0
	w := v.Extensions()
	for _, data, ok := w.Next(); ok; _, data, ok = w.Next() {
		nExt++
		dataLen += len(data)
	}
	if err := w.Err(); err != nil {
		return nil, err
	}
	if nExt == 0 {
		ch.CompressionMethods = append([]byte(nil), v.compression...)
		return ch, nil
	}
	// The compression list shares the payload backing: one copy buffer
	// serves both it and every extension body.
	compLen := len(v.compression)
	ch.Extensions = make([]Extension, 0, nExt)
	buf := make([]byte, 0, compLen+dataLen)
	if compLen > 0 { // keep nil (not empty) for a zero-length list
		buf = append(buf, v.compression...)
		ch.CompressionMethods = buf[0:compLen:compLen]
	}
	w = v.Extensions()
	for t, data, ok := w.Next(); ok; t, data, ok = w.Next() {
		var owned []byte
		if len(data) > 0 {
			off := len(buf)
			buf = append(buf, data...)
			owned = buf[off : off+len(data) : off+len(data)]
		}
		ch.Extensions = append(ch.Extensions, Extension{Type: t, Data: owned})
	}
	return ch, nil
}

func appendUint16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}
