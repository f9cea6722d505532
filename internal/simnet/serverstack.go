package simnet

// Server-side TLS stack models. Every server in the world runs one of a
// small set of modeled TLS implementations, assigned deterministically
// per owning vendor (third-party domains key on their SLD). A model is
// a pure function from ClientHello to either ServerHello or fatal
// alert, capturing the behaviours that real-world active fingerprinting
// ("Active TLS Stack Fingerprinting", PAPERS.md) keys on:
//
//   - cipher-selection policy: server-preference order vs honouring the
//     client's order, and the preference list itself;
//   - extension echo policy: which ClientHello extensions the stack
//     acknowledges, and in which order it emits them;
//   - version negotiation: the supported floor/ceiling, whether
//     downlevel hellos are clamped or refused, and TLS 1.3 capability
//     via supported_versions/key_share;
//   - alert taxonomy: which alert description answers a hello with no
//     cipher overlap, a downlevel version, or a non-null compression
//     offer.
//
// The models are caricatures tuned for distinguishability, not
// emulations of specific library versions; their names indicate the
// behavioural family they are drawn from.

import (
	"time"

	"repro/internal/tlswire"
)

// ServerStack models one server-side TLS implementation.
type ServerStack struct {
	// Name labels the stack in classifications and reports.
	Name string
	// MinVersion/MaxVersion bound the negotiable protocol range.
	MinVersion, MaxVersion tlswire.Version
	// Preference12 lists the TLS <= 1.2 suites the stack accepts, in its
	// server-side preference order.
	Preference12 []uint16
	// Preference13 lists the TLS 1.3 suites in preference order (empty
	// for pre-1.3 stacks).
	Preference13 []uint16
	// PreferClientOrder selects the first client-offered suite the stack
	// supports instead of walking the server preference list.
	PreferClientOrder bool
	// Echo lists the ClientHello extensions the stack acknowledges, in
	// the order it emits them on a TLS <= 1.2 ServerHello.
	Echo []tlswire.ExtensionType
	// Echo13 lists the extensions emitted on a TLS 1.3 ServerHello
	// (supported_versions and key_share, in stack-specific order).
	Echo13 []tlswire.ExtensionType
	// Groups lists the named groups the stack accepts for 1.3 key
	// exchange, in server preference order (empty for pre-1.3 stacks).
	Groups []uint16
	// PreferOwnGroup makes the stack insist on its top mutually-supported
	// group: when the client advertises it without sending a share for
	// it, the stack answers HelloRetryRequest instead of accepting a
	// lower-ranked share — the prioritized-groups quirk some OpenSSL 3.x
	// and wolfSSL deployments exhibit, and a key serverfp discriminator.
	PreferOwnGroup bool
	// EchoSessionID echoes the client's legacy session id (TLS 1.3
	// compatibility mode, and old resumption-style stacks).
	EchoSessionID bool
	// AlertNoOverlap answers a hello sharing no cipher suite.
	AlertNoOverlap tlswire.AlertDescription
	// AlertDownlevel answers a hello below MinVersion.
	AlertDownlevel tlswire.AlertDescription
	// AlertCompression, when non-zero, refuses hellos offering any
	// non-null compression method; zero tolerates them (selects null).
	AlertCompression tlswire.AlertDescription
}

// serverStacks is the model registry, in deterministic assignment order.
var serverStacks = []*ServerStack{
	{
		// OpenSSL 1.0.2 era: no TLS 1.3, accepts SSL 3.0 by clamping,
		// AES-256-first server order, rich echo set.
		Name:       "openssl-1.0.2",
		MinVersion: tlswire.VersionSSL30,
		MaxVersion: tlswire.VersionTLS12,
		Preference12: []uint16{
			0xC030, 0xC02C, 0xC02F, 0xC02B, 0xC014, 0xC013,
			0x009D, 0x009C, 0x0035, 0x002F, 0x000A,
		},
		Echo: []tlswire.ExtensionType{
			tlswire.ExtRenegotiationInfo, tlswire.ExtECPointFormats,
			tlswire.ExtSessionTicket, tlswire.ExtStatusRequest,
		},
		AlertNoOverlap: tlswire.AlertHandshakeFailure,
		AlertDownlevel: tlswire.AlertHandshakeFailure, // unreachable: floor is SSL 3.0
	},
	{
		// OpenSSL 1.1.1 era: TLS 1.3 capable, ChaCha-first 1.2 order,
		// echoes the legacy session id in 1.3 compatibility mode.
		Name:       "openssl-1.1.1",
		MinVersion: tlswire.VersionTLS10,
		MaxVersion: tlswire.VersionTLS13,
		Preference12: []uint16{
			0xCCA9, 0xCCA8, 0xC02B, 0xC02F, 0xC02C, 0xC030,
			0x009C, 0x009D, 0x002F, 0x0035,
		},
		Preference13: []uint16{0x1302, 0x1303, 0x1301},
		Echo: []tlswire.ExtensionType{
			tlswire.ExtRenegotiationInfo, tlswire.ExtECPointFormats,
			tlswire.ExtSessionTicket, tlswire.ExtExtendedMasterSecret,
		},
		Echo13:         []tlswire.ExtensionType{tlswire.ExtSupportedVersions, tlswire.ExtKeyShare},
		Groups:         []uint16{tlswire.GroupX25519, tlswire.GroupP256, tlswire.GroupP384},
		EchoSessionID:  true,
		AlertNoOverlap: tlswire.AlertHandshakeFailure,
		AlertDownlevel: tlswire.AlertProtocolVersion,
	},
	{
		// wolfSSL-style embedded stack: honours the client's cipher
		// order, minimal echo, refuses compression offers outright.
		Name:       "wolfssl",
		MinVersion: tlswire.VersionTLS10,
		MaxVersion: tlswire.VersionTLS12,
		Preference12: []uint16{
			0xC02B, 0xC02F, 0xC02C, 0xC030, 0x009C, 0x009D,
			0x002F, 0x0035, 0xC013, 0xC014,
		},
		PreferClientOrder: true,
		Echo:              []tlswire.ExtensionType{tlswire.ExtRenegotiationInfo},
		AlertNoOverlap:    tlswire.AlertHandshakeFailure,
		AlertDownlevel:    tlswire.AlertProtocolVersion,
		AlertCompression:  tlswire.AlertIllegalParameter,
	},
	{
		// mbedTLS-style: AES-128-first server order, distinctive echo
		// set, insufficient_security on no overlap and a
		// handshake_failure quirk on downlevel hellos.
		Name:       "mbedtls",
		MinVersion: tlswire.VersionTLS10,
		MaxVersion: tlswire.VersionTLS12,
		Preference12: []uint16{
			0xC02F, 0xC02B, 0xC030, 0xC02C, 0x009C, 0x009D,
			0xC013, 0xC014, 0x002F, 0x0035,
		},
		Echo: []tlswire.ExtensionType{
			tlswire.ExtRenegotiationInfo, tlswire.ExtExtendedMasterSecret,
			tlswire.ExtMaxFragmentLength,
		},
		AlertNoOverlap: tlswire.AlertInsufficientSecurity,
		AlertDownlevel: tlswire.AlertHandshakeFailure,
	},
	{
		// crypto/tls-style: TLS 1.2 floor, AES-GCM-128-first order,
		// key_share before supported_versions on the 1.3 flight.
		Name:       "gotls",
		MinVersion: tlswire.VersionTLS12,
		MaxVersion: tlswire.VersionTLS13,
		Preference12: []uint16{
			0xC02F, 0xC02B, 0xC030, 0xC02C, 0xCCA8, 0xCCA9,
			0xC013, 0xC014, 0x009C, 0x009D, 0x002F, 0x0035,
		},
		Preference13:     []uint16{0x1301, 0x1302, 0x1303},
		Echo:             []tlswire.ExtensionType{tlswire.ExtRenegotiationInfo, tlswire.ExtECPointFormats},
		Echo13:           []tlswire.ExtensionType{tlswire.ExtKeyShare, tlswire.ExtSupportedVersions},
		Groups:           []uint16{tlswire.GroupX25519, tlswire.GroupP256, tlswire.GroupP384, tlswire.GroupP521},
		EchoSessionID:    true,
		AlertNoOverlap:   tlswire.AlertHandshakeFailure,
		AlertDownlevel:   tlswire.AlertProtocolVersion,
		AlertCompression: tlswire.AlertDecodeError,
	},
	{
		// Pre-extension embedded firmware: TLS 1.0 ceiling, SSL 3.0
		// floor, CBC/RC4-only client-order selection, ignores every
		// extension, alerts unexpected_message on anything odd.
		Name:              "embedded-legacy",
		MinVersion:        tlswire.VersionSSL30,
		MaxVersion:        tlswire.VersionTLS10,
		Preference12:      []uint16{0x0035, 0x002F, 0x000A, 0x0005, 0x0004},
		PreferClientOrder: true,
		EchoSessionID:     true,
		AlertNoOverlap:    tlswire.AlertUnexpectedMessage,
		AlertDownlevel:    tlswire.AlertUnexpectedMessage, // unreachable: floor is SSL 3.0
		AlertCompression:  tlswire.AlertUnexpectedMessage,
	},
}

// modernServerStacks are the firmware-drift successors: stacks that only
// appear when a world is built at a post-paper `AsOf` date. They live in
// a separate registry because the length of serverStacks is load-bearing
// for seeded assignment — appending here never reshuffles the paper-era
// world.
var modernServerStacks = []*ServerStack{
	{
		// OpenSSL 3.x era: TLS 1.2 floor (default security level), AES-256
		// first on both protocol generations, and the prioritized-groups
		// quirk — a share for anything but x25519 earns a
		// HelloRetryRequest asking for x25519.
		Name:       "openssl-3.0",
		MinVersion: tlswire.VersionTLS12,
		MaxVersion: tlswire.VersionTLS13,
		Preference12: []uint16{
			0xC030, 0xC02C, 0xCCA9, 0xCCA8, 0xC02F, 0xC02B,
			0x009D, 0x009C,
		},
		Preference13: []uint16{0x1302, 0x1303, 0x1301},
		Echo: []tlswire.ExtensionType{
			tlswire.ExtRenegotiationInfo, tlswire.ExtExtendedMasterSecret,
			tlswire.ExtSessionTicket,
		},
		Echo13:           []tlswire.ExtensionType{tlswire.ExtSupportedVersions, tlswire.ExtKeyShare},
		Groups:           []uint16{tlswire.GroupX25519, tlswire.GroupP256, tlswire.GroupP384, tlswire.GroupFFDHE2048},
		PreferOwnGroup:   true,
		EchoSessionID:    true,
		AlertNoOverlap:   tlswire.AlertHandshakeFailure,
		AlertDownlevel:   tlswire.AlertProtocolVersion,
		AlertCompression: tlswire.AlertIllegalParameter,
	},
	{
		// wolfSSL 5.x era: 1.3-capable embedded stack, AES-only 1.3 suite
		// set (no ChaCha in the default build), P-256-first group order
		// with the insist-on-own-group retry, and no session-id echo — an
		// embedded stack that skips 1.3 middlebox-compatibility mode.
		Name:       "wolfssl-5",
		MinVersion: tlswire.VersionTLS12,
		MaxVersion: tlswire.VersionTLS13,
		Preference12: []uint16{
			0xC02B, 0xC02F, 0xC02C, 0xC030, 0x009C, 0x009D,
		},
		Preference13:      []uint16{0x1301, 0x1302},
		PreferClientOrder: true,
		Echo:              []tlswire.ExtensionType{tlswire.ExtRenegotiationInfo},
		Echo13:            []tlswire.ExtensionType{tlswire.ExtSupportedVersions, tlswire.ExtKeyShare},
		Groups:            []uint16{tlswire.GroupP256, tlswire.GroupX25519},
		PreferOwnGroup:    true,
		AlertNoOverlap:    tlswire.AlertHandshakeFailure,
		AlertDownlevel:    tlswire.AlertProtocolVersion,
		AlertCompression:  tlswire.AlertIllegalParameter,
	},
}

// stackSuccessor chains each stack to the model a firmware upgrade
// replaces it with. Stacks absent here (mbedtls, embedded-legacy, gotls,
// and the modern stacks themselves) never upgrade.
var stackSuccessor = map[string]string{
	"openssl-1.0.2": "openssl-1.1.1",
	"openssl-1.1.1": "openssl-3.0",
	"wolfssl":       "wolfssl-5",
}

// ServerStacks returns the modeled stack registry in deterministic
// order. Callers must not mutate the returned models.
func ServerStacks() []*ServerStack {
	return serverStacks
}

// AllServerStacks returns every modeled stack — the paper-era registry
// plus the firmware-drift successors — in deterministic order. This is
// the label space active fingerprinting must cover once worlds can be
// built at post-paper dates.
func AllServerStacks() []*ServerStack {
	out := make([]*ServerStack, 0, len(serverStacks)+len(modernServerStacks))
	out = append(out, serverStacks...)
	out = append(out, modernServerStacks...)
	return out
}

// ServerStackByName returns the named model, or nil.
func ServerStackByName(name string) *ServerStack {
	for _, st := range serverStacks {
		if st.Name == name {
			return st
		}
	}
	for _, st := range modernServerStacks {
		if st.Name == name {
			return st
		}
	}
	return nil
}

// stackFor assigns a server stack: vendor-owned domains are coherent
// per vendor (a vendor runs one backend stack), third-party domains key
// on their SLD. The decision hashes the seed rather than drawing from
// the world's rand stream, so adding stacks never perturbs certificate
// minting.
func stackFor(seed int64, owner, sld string) *ServerStack {
	key := owner
	if key == "" {
		key = sld
	}
	h := hashOf("stack:" + key)
	h ^= mixSeed(seed)
	return serverStacks[h%uint64(len(serverStacks))]
}

// Backend firmware-drift window: upgrades land between the end of the
// paper's capture window and six years later. A zero AsOf (the paper
// era) predates every upgrade, so paper-era worlds are byte-identical to
// pre-drift builds.
var (
	backendDriftStart = time.Date(2020, 8, 1, 0, 0, 0, 0, time.UTC)
	backendDriftEnd   = time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
)

// backendStragglerPct of backends never upgrade their stack, whatever
// the date — the paper's central finding is exactly this long tail.
const backendStragglerPct = 30

// stackForAsOf is stackFor evaluated at a virtual date: starting from
// the paper-era assignment, the backend walks its stackSuccessor chain
// for every upgrade whose seeded date has passed. Upgrade dates hash the
// (seed, vendor-or-SLD, stack) triple, so they are stable across worlds
// and monotone in asof: a later date can only advance further along the
// chain, never regress.
func stackForAsOf(seed int64, owner, sld string, asof time.Time) *ServerStack {
	st := stackFor(seed, owner, sld)
	if asof.IsZero() || !asof.After(backendDriftStart) {
		return st
	}
	key := owner
	if key == "" {
		key = sld
	}
	if (hashOf("backend-straggler:"+key)^mixSeed(seed))%100 < backendStragglerPct {
		return st
	}
	window := backendDriftEnd.Sub(backendDriftStart)
	for {
		succ, ok := stackSuccessor[st.Name]
		if !ok {
			return st
		}
		h := hashOf("backend-upgrade:"+key+":"+st.Name) ^ mixSeed(seed)
		upgradeAt := backendDriftStart.Add(time.Duration(h % uint64(window)))
		if asof.Before(upgradeAt) {
			return st
		}
		st = ServerStackByName(succ)
	}
}

// mixSeed spreads the seed's bits so consecutive seeds reshuffle stack
// assignment (a bare XOR of small ints would only touch low bits).
func mixSeed(seed int64) uint64 {
	x := uint64(seed)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// supports12 reports whether the stack accepts the suite at TLS <= 1.2.
func (st *ServerStack) supports12(id uint16) bool {
	for _, s := range st.Preference12 {
		if s == id {
			return true
		}
	}
	return false
}

// selectCipher12 applies the stack's TLS <= 1.2 selection policy; ok is
// false when no offered suite is acceptable.
func (st *ServerStack) selectCipher12(offered []uint16) (uint16, bool) {
	if st.PreferClientOrder {
		for _, id := range offered {
			if tlswire.IsGREASEExtension(id) {
				continue
			}
			if st.supports12(id) {
				return id, true
			}
		}
		return 0, false
	}
	for _, id := range st.Preference12 {
		for _, off := range offered {
			if id == off {
				return id, true
			}
		}
	}
	return 0, false
}

// selectCipher13 picks the TLS 1.3 suite (always server order: every
// 1.3 stack modeled here ranks its own AEAD list).
func (st *ServerStack) selectCipher13(offered []uint16) (uint16, bool) {
	for _, id := range st.Preference13 {
		for _, off := range offered {
			if id == off {
				return id, true
			}
		}
	}
	return 0, false
}

// supportsGroup reports whether the stack accepts the named group.
func (st *ServerStack) supportsGroup(g uint16) bool {
	for _, sg := range st.Groups {
		if sg == g {
			return true
		}
	}
	return false
}

// selectGroup applies the stack's 1.3 key-exchange group policy to the
// client's key_share and supported_groups offers. It returns the chosen
// group, whether the client already sent a share for it (false means the
// stack answers HelloRetryRequest), and whether any mutually supported
// group exists at all.
func (st *ServerStack) selectGroup(hello *tlswire.ClientHello) (group uint16, haveShare, ok bool) {
	shares := hello.KeyShares()
	offered := hello.SupportedGroups()
	shareFor := func(g uint16) bool {
		for _, s := range shares {
			if s.Group == g {
				return true
			}
		}
		return false
	}
	advertised := func(g uint16) bool {
		if shareFor(g) {
			return true // a share implies support even if groups omit it
		}
		for _, og := range offered {
			if og == g {
				return true
			}
		}
		return false
	}
	if len(shares) == 0 && len(offered) == 0 {
		// The hello negotiated 1.3 without any key-exchange offer (some
		// minimal embedded clients do). Retry for the server's top group
		// rather than refusing outright.
		if len(st.Groups) == 0 {
			return 0, false, false
		}
		return st.Groups[0], false, true
	}
	if st.PreferOwnGroup {
		// Walk the server's preference order and take the first group the
		// client supports at all; a missing share for it earns an HRR even
		// when a lower-ranked share is on the table.
		for _, g := range st.Groups {
			if advertised(g) {
				return g, shareFor(g), true
			}
		}
		return 0, false, false
	}
	// Share-respecting policy: accept the client's first usable share.
	for _, s := range shares {
		if st.supportsGroup(s.Group) {
			return s.Group, true, true
		}
	}
	// No usable share; retry for the best mutually advertised group.
	for _, g := range st.Groups {
		if advertised(g) {
			return g, false, true
		}
	}
	return 0, false, false
}

// keyShareLen is the key-exchange payload size per named group.
var keyShareLen = map[uint16]int{
	tlswire.GroupX25519:    32,
	tlswire.GroupP256:      65,
	tlswire.GroupP384:      97,
	tlswire.GroupP521:      133,
	tlswire.GroupFFDHE2048: 256,
}

// keyShareData derives the deterministic key-exchange payload the stack
// sends for a group: stack identity mixed with the client random, sized
// like the real group's wire encoding.
func (st *ServerStack) keyShareData(group uint16, hello *tlswire.ClientHello) []byte {
	n, ok := keyShareLen[group]
	if !ok {
		n = 32
	}
	h := hashOf("keyshare:" + st.Name)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(h>>(8*uint(i%8))) ^ hello.Random[i%32] ^ byte(i)
	}
	return out
}

// fatal builds the stack's refusal.
func fatal(desc tlswire.AlertDescription) *tlswire.Alert {
	return &tlswire.Alert{Level: tlswire.AlertLevelFatal, Description: desc}
}

// Respond answers a ClientHello the way this stack would: with a
// ServerHello carrying the selected cipher, negotiated version, and
// echoed extensions, or with a fatal alert. The function is pure and
// deterministic; the ServerHello random derives from the stack name and
// the client random so repeated handshakes are reproducible.
func (st *ServerStack) Respond(hello *tlswire.ClientHello) (*tlswire.ServerHello, *tlswire.Alert) {
	// Compression: the null method must be offered; stacks with a
	// compression alert refuse any hello offering more than null.
	nullOffered := len(hello.CompressionMethods) == 0
	extraOffered := false
	for _, m := range hello.CompressionMethods {
		if m == 0 {
			nullOffered = true
		} else {
			extraOffered = true
		}
	}
	if !nullOffered {
		return nil, fatal(tlswire.AlertHandshakeFailure)
	}
	if extraOffered && st.AlertCompression != 0 {
		return nil, fatal(st.AlertCompression)
	}

	// Version negotiation: clamp the client's best to the stack ceiling;
	// below the floor the stack refuses with its downlevel alert.
	version := hello.EffectiveVersion()
	if version > st.MaxVersion {
		version = st.MaxVersion
	}
	if version < st.MinVersion {
		return nil, fatal(st.AlertDownlevel)
	}

	// Cipher selection. A 1.3 negotiation with no 1.3 suite on offer
	// falls back to 1.2 when the floor allows (supported_versions said
	// the client speaks it too).
	var cipher uint16
	var ok bool
	if version == tlswire.VersionTLS13 {
		cipher, ok = st.selectCipher13(hello.CipherSuites)
		if !ok && tlswire.VersionTLS12 >= st.MinVersion {
			version = tlswire.VersionTLS12
			cipher, ok = st.selectCipher12(hello.CipherSuites)
		}
	} else {
		cipher, ok = st.selectCipher12(hello.CipherSuites)
	}
	if !ok {
		return nil, fatal(st.AlertNoOverlap)
	}

	sh := &tlswire.ServerHello{
		LegacyVersion: version,
		CipherSuite:   cipher,
	}
	if version == tlswire.VersionTLS13 {
		sh.LegacyVersion = tlswire.VersionTLS12 // 1.3 keeps 0x0303 here
	}
	// Deterministic server random: stack identity mixed with the client
	// random, so every (stack, hello) pair reproduces byte-identically.
	h := hashOf("shrandom:" + st.Name)
	for i := range sh.Random {
		sh.Random[i] = byte(h>>(8*uint(i%8))) ^ hello.Random[i]
	}
	if st.EchoSessionID {
		sh.SessionID = append([]byte(nil), hello.SessionID...)
	}
	if version == tlswire.VersionTLS13 {
		group, haveShare, okGroup := st.selectGroup(hello)
		if !okGroup {
			return nil, fatal(st.AlertNoOverlap)
		}
		for _, t := range st.Echo13 {
			switch t {
			case tlswire.ExtSupportedVersions:
				sh.SetSelectedVersion(tlswire.VersionTLS13)
			case tlswire.ExtKeyShare:
				if haveShare {
					sh.SetKeyShare(group, st.keyShareData(group, hello))
				} else {
					// HelloRetryRequest: the HRR marker random plus the
					// bare wanted group.
					sh.SetRetryKeyShare(group)
				}
			}
		}
		return sh, nil
	}
	for _, t := range st.Echo {
		if !hello.HasExtension(t) {
			continue
		}
		var data []byte
		switch t {
		case tlswire.ExtRenegotiationInfo:
			data = []byte{0}
		case tlswire.ExtECPointFormats:
			data = []byte{1, 0}
		}
		sh.Extensions = append(sh.Extensions, tlswire.Extension{Type: t, Data: data})
	}
	return sh, nil
}
