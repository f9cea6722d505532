// Package dataset generates the synthetic crowdsourced IoT TLS dataset
// standing in for the IoT Inspector traces the paper used (2,014 devices,
// 286 models, 65 vendors, 721 users, 11,439 ClientHellos between
// 2019-04-29 and 2020-08-01).
//
// The generator is a structural model of how the real population produced
// its fingerprints: every vendor ships a handful of firmware core stacks
// drawn from era-appropriate TLS libraries and customized (mutated) per
// vendor; device types add application stacks; a fraction of devices
// carry per-device customizations (updates, third-party apps); shared
// SDKs (Netflix, Sonos, the Roku platform...) inject identical stacks
// into devices of *different* vendors and tie them to specific servers;
// a few devices run unmodified library builds (the 2.55% exact-match
// population); some legacy devices still emit SSL 3.0 hellos; Android-
// derived stacks GREASE. Every emitted record carries real ClientHello
// wire bytes produced by internal/tlswire.
//
// Everything is deterministic given Config.Seed.
package dataset

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/intern"
	"repro/internal/libcorpus"
	"repro/internal/obs"
	"repro/internal/tlswire"
)

// Config parameterizes generation.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Scale multiplies the population (1.0 = paper scale, ~2000 devices).
	Scale float64
	// Start and End bound the capture window. Zero values default to the
	// paper's window (2019-04-29 .. 2020-08-01).
	Start, End time.Time
	// AsOf replays the population at a later virtual date: devices whose
	// hash-scheduled firmware update has landed by AsOf emit 1.3-era
	// hellos instead of their paper-era ones (see drift.go). Zero — or
	// any date inside the paper window — is a strict no-op.
	AsOf time.Time
	// Metrics optionally receives generation counters (devices, records,
	// hello-template cache hits/misses). nil disables instrumentation;
	// the field never influences the generated bytes.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2019, 4, 29, 0, 0, 0, 0, time.UTC)
	}
	if c.End.IsZero() {
		c.End = time.Date(2020, 8, 1, 0, 0, 0, 0, time.UTC)
	}
	return c
}

// Device is one IoT device in the population.
type Device struct {
	// ID is the stable device identifier.
	ID string
	// Vendor name (one of the 65).
	Vendor string
	// Model is the product model label.
	Model string
	// Type is the device type ("tv", "camera", ...).
	Type string
	// User is the anonymized owner id.
	User string
	// Stacks are the TLS client instances the device uses.
	Stacks []*Stack
}

// Record is one observed ClientHello.
type Record struct {
	// DeviceID, Vendor, Model, Type, User identify the sender.
	DeviceID string
	Vendor   string
	Model    string
	Type     string
	User     string
	// Time of the observation.
	Time time.Time
	// SNI the hello carried.
	SNI string
	// StackID names the stack that produced the hello.
	StackID string
	// Raw is the marshaled TLS record containing the ClientHello.
	Raw []byte
}

// Hello parses the record's wire bytes.
func (r Record) Hello() (*tlswire.ClientHello, error) {
	return tlswire.ParseRecord(r.Raw)
}

// Dataset is the generated population and its observations.
type Dataset struct {
	Config  Config
	Devices []*Device
	// Records holds the observations in interned columnar form; see
	// Records for the row-shaped compatibility view.
	Records Records
	// SDKStacks indexes the shared SDK stacks by name.
	SDKStacks map[string]*Stack
	// VendorFQDNs maps each vendor to its own server pool.
	VendorFQDNs map[string][]string
}

// Generate builds the dataset.
func Generate(cfg Config) *Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := &Dataset{
		Config:      cfg,
		SDKStacks:   buildSDKStacks(rng),
		VendorFQDNs: map[string][]string{},
	}

	vendors := Vendors()
	// SDK-owned FQDNs are fingerprint-tied (Section 4.4): no other stack
	// may visit them, so they are excluded from every other pool.
	sdkFQDN := map[string]bool{}
	for _, stack := range ds.SDKStacks {
		for _, sni := range stack.SNIs {
			sdkFQDN[sni] = true
		}
	}
	// Vendor server pools.
	for _, v := range vendors {
		var pool []string
		for _, sld := range v.SLDs {
			for _, fqdn := range FQDNsOf(sld) {
				if !sdkFQDN[fqdn] {
					pool = append(pool, fqdn)
				}
			}
		}
		ds.VendorFQDNs[v.Name] = pool
	}
	// Generic third-party pool.
	var genericPool []string
	for _, sld := range ThirdPartySLDs {
		for _, fqdn := range FQDNsOf(sld) {
			if !sdkFQDN[fqdn] {
				genericPool = append(genericPool, fqdn)
			}
		}
	}

	// Shared stack-group pools (vendors in a group draw the same cores
	// and type stacks).
	groupCores := map[string][]*Stack{}
	coreFor := func(v VendorProfile) []*Stack {
		key := v.StackGroup
		if key == "" {
			key = "solo:" + v.Name
		}
		if cores, ok := groupCores[key]; ok {
			return cores
		}
		n := 2 + rng.Intn(3) // 2-4 core stacks per pool
		pool := basePool(v.Profile)
		cores := make([]*Stack, 0, n)
		for i := 0; i < n; i++ {
			base := pool[rng.Intn(len(pool))]
			cores = append(cores, &Stack{
				ID:    fmt.Sprintf("core:%s:%d", key, i),
				Print: mutatePrint(base, rng),
			})
		}
		groupCores[key] = cores
		return cores
	}
	groupTypeStacks := map[string][]*Stack{}
	typeStacksFor := func(v VendorProfile, typ string) []*Stack {
		key := v.StackGroup
		if key == "" {
			key = "solo:" + v.Name
		}
		key += ":" + typ
		if ts, ok := groupTypeStacks[key]; ok {
			return ts
		}
		n := 1 + rng.Intn(2)
		pool := basePool(v.Profile)
		ts := make([]*Stack, 0, n)
		for i := 0; i < n; i++ {
			ts = append(ts, &Stack{
				ID:    fmt.Sprintf("type:%s:%d", key, i),
				Print: mutatePrint(pool[rng.Intn(len(pool))], rng),
			})
		}
		groupTypeStacks[key] = ts
		return ts
	}

	// Commodity stacks: widely shipped vendor-neutral builds (busybox-era
	// SDK toolchains) shared across many vendors. They are the main
	// source of cross-vendor fingerprint sharing outside SDKs. Vendors
	// draw from the pool matching their own stack era, so modern vendors
	// stay clean (Figure 11's 7 never-vulnerable vendors).
	commodityByProfile := map[SecurityProfile][]*Stack{}
	for i := 0; i < 90; i++ {
		profile := []SecurityProfile{ProfileModern, ProfileMixed, ProfileLegacy}[i%3]
		pool := basePool(profile)
		commodityByProfile[profile] = append(commodityByProfile[profile], &Stack{
			ID:    fmt.Sprintf("commodity:%d", i),
			Print: mutatePrint(pool[rng.Intn(len(pool))], rng),
		})
	}
	// Duo stacks: one stack per adjacent vendor pair (a shared ODM build
	// between two brands) — the source of Table 2's degree-2 bucket.
	duoStacks := map[string]*Stack{}
	for i := 0; i+1 < len(vendors); i += 2 {
		pool := basePool(vendors[i].Profile)
		s := &Stack{
			ID:    fmt.Sprintf("duo:%d", i/2),
			Print: mutatePrint(pool[rng.Intn(len(pool))], rng),
		}
		duoStacks[vendors[i].Name] = s
		duoStacks[vendors[i+1].Name] = s
	}

	// Exact-library stacks: pick spread-out corpus entries; mostly
	// curl+OpenSSL (the paper matched 14 curl+OpenSSL and 2 Mbed TLS).
	exactEntries := exactLibraryEntries()

	numUsers := int(float64(721)*cfg.Scale + 0.5)
	if numUsers < 1 {
		numUsers = 1
	}

	windowSec := cfg.End.Unix() - cfg.Start.Unix()
	startNS := cfg.Start.UnixNano()
	cols := newColumns()
	tab := cols.tab
	stamper := newHelloStamper(cols)
	// The plan interns nothing per record: every identity string it
	// draws comes from a symPool or a Stack, which intern a string at
	// its first use, the first Intern call a per-record lookup would
	// make, so the table numbers every string in the same order.
	users := symPool{strs: make([]string, numUsers), syms: make([]intern.Symbol, numUsers)}
	generic := newSymPool(genericPool)
	deviceSeq := 0
	for _, v := range vendors {
		count := int(float64(v.Weight)*cfg.Scale + 0.5)
		if count < 1 {
			count = 1
		}
		cores := coreFor(v)
		// Device-type stacks, shared at stack-group granularity.
		typeStacks := map[string][]*Stack{}
		for _, typ := range v.Types {
			typeStacks[typ] = typeStacksFor(v, typ)
		}
		// Boutique vendors with tiny fleets rebuild firmware per device
		// batch: every device carries its own one-off stack, nothing is
		// shared — the DoC_device = 1 population of Figure 2.
		perDeviceUnique := v.Weight <= 12 && len(v.SDKs) == 0 && v.StackGroup == "" &&
			!v.AwfulSuites && v.SSL3Devices == 0 && !v.GREASE &&
			v.ExactLibDevices == 0 && !v.RC4First
		// Awful-suite stacks for the flagged vendors.
		var awfulStacks []*Stack
		if v.AwfulSuites {
			n := 1
			if v.Name == "Synology" {
				n = 6 // Synology's 22 unique vulnerable fingerprints come
				// from many awful variants across its devices
			}
			pool := basePool(ProfileLegacy)
			for i := 0; i < n; i++ {
				awfulStacks = append(awfulStacks, &Stack{
					ID:    fmt.Sprintf("awful:%s:%d", v.Name, i),
					Print: awfulPrint(pool[rng.Intn(len(pool))], v.Name, rng),
				})
			}
		}
		models := newSymPool(modelNames(v))
		uniqueRate := 0.0
		switch {
		case v.Weight >= 60:
			uniqueRate = 0.28
		case v.Weight >= 15:
			uniqueRate = 0.15
		}
		exactLeft := v.ExactLibDevices
		var venSym intern.Symbol
		types := newSymPool(v.Types)
		vendorPool := newSymPool(ds.VendorFQDNs[v.Name])
		// SSL3 stragglers' hellos come from a vendor-wide stack no device
		// lists.
		ssl3Stack := &Stack{ID: "ssl3:" + v.Name, Print: ssl3Print()}

		for d := 0; d < count; d++ {
			deviceSeq++
			typIdx := rng.Intn(len(v.Types))
			typ := v.Types[typIdx]
			modIdx := rng.Intn(len(models.strs))
			userIdx := rng.Intn(numUsers)
			if users.strs[userIdx] == "" {
				users.strs[userIdx] = fmt.Sprintf("user-%04d", userIdx)
			}
			dev := &Device{
				ID:     deviceID(deviceSeq),
				Vendor: v.Name,
				Model:  models.strs[modIdx],
				Type:   typ,
				User:   users.strs[userIdx],
			}
			// Core stack (by firmware version); boutique vendors mint a
			// one-off mutation per device instead.
			core := cores[rng.Intn(len(cores))]
			if perDeviceUnique {
				dev.Stacks = append(dev.Stacks, &Stack{
					ID:    "solo:" + dev.ID,
					Print: mutatePrint(core.Print, rng),
				})
			} else {
				dev.Stacks = append(dev.Stacks, core)
			}
			// Chromium stack for Android-derived vendors.
			if v.GREASE && rng.Float64() < 0.8 {
				seat := rng.Intn(3)
				dev.Stacks = append(dev.Stacks, &Stack{
					ID:    fmt.Sprintf("chromium:%d", seat),
					Print: chromiumPrint(seat),
				})
			}
			if !perDeviceUnique {
				// Type stack.
				if ts := typeStacks[typ]; len(ts) > 0 && rng.Float64() < 0.6 {
					dev.Stacks = append(dev.Stacks, ts[rng.Intn(len(ts))])
				}
				// Commodity toolchain stack (not for stack-group vendors,
				// whose sharing comes from the group pool itself).
				if v.StackGroup == "" && rng.Float64() < 0.5 {
					pool := commodityByProfile[v.Profile]
					dev.Stacks = append(dev.Stacks, pool[zipfIndex(rng, len(pool))])
				}
				// Duo (shared-ODM) stack; stack-group vendors already
				// share their whole pool.
				if duo := duoStacks[v.Name]; duo != nil && v.StackGroup == "" && rng.Float64() < 0.25 {
					dev.Stacks = append(dev.Stacks, duo)
				}
				// Per-device customization.
				if rng.Float64() < uniqueRate {
					dev.Stacks = append(dev.Stacks, &Stack{
						ID:    "unique:" + dev.ID,
						Print: mutatePrint(core.Print, rng),
					})
				}
			}
			// Awful stack for a minority of the vendor's devices.
			if len(awfulStacks) > 0 && rng.Float64() < 0.25 {
				dev.Stacks = append(dev.Stacks, awfulStacks[rng.Intn(len(awfulStacks))])
			}
			// Exact-library devices replace their core with a stock build.
			if exactLeft > 0 {
				exactLeft--
				e := exactEntries[rng.Intn(len(exactEntries))]
				dev.Stacks[0] = &Stack{
					ID:    "lib:" + e.Name(),
					Print: clonePrint(e.Print),
				}
			}
			// SDK stacks by membership and device type.
			for _, sdk := range v.SDKs {
				stack := ds.SDKStacks[sdk]
				if stack == nil {
					continue
				}
				if !sdkAppliesTo(sdk, typ) {
					continue
				}
				if rng.Float64() < 0.7 {
					dev.Stacks = append(dev.Stacks, stack)
				}
			}
			// Belkin-style vendors lead with RC4 in every proposed list:
			// transform every stack of the device (SDK-free vendors only).
			if v.RC4First {
				wrapped := make([]*Stack, len(dev.Stacks))
				for i, s := range dev.Stacks {
					wrapped[i] = &Stack{
						ID:    "rc4:" + s.ID,
						Print: rc4FirstPrint(s.Print),
						SNIs:  s.SNIs,
					}
				}
				dev.Stacks = wrapped
			}
			ds.Devices = append(ds.Devices, dev)
			row := planRow{device: tab.Intern(dev.ID)}
			if venSym == 0 {
				venSym = tab.Intern(v.Name)
			}
			row.vendor = venSym
			row.model = models.sym(tab, modIdx)
			row.typ = types.sym(tab, typIdx)
			row.user = users.sym(tab, userIdx)

			nRec := 3 + rng.Intn(6)
			ssl3Budget := 0
			if d < v.SSL3Devices {
				ssl3Budget = 1 + rng.Intn(2)
			}
			for rIdx := 0; rIdx < nRec; rIdx++ {
				stack := dev.Stacks[rng.Intn(len(dev.Stacks))]
				var snis symPool
				if len(stack.SNIs) > 0 {
					snis = stack.sniPool()
				} else if v.OnlyPrivateCA || rng.Float64() < 0.8 || len(genericPool) == 0 {
					// OnlyPrivateCA vendors' devices speak exclusively to
					// the vendor cloud (Canary/Tuya/Obihai, Section 5.2).
					if len(vendorPool.strs) == 0 {
						continue
					}
					snis = vendorPool
				} else {
					snis = generic
				}
				sniIdx := zipfIndex(rng, len(snis.strs))
				// SSL3 stragglers replace a record with an SSL3 hello
				// aimed at a vendor server (never an SDK-tied one).
				if ssl3Budget > 0 && rIdx == nRec-1 {
					ssl3Budget--
					stack = ssl3Stack
					if len(vendorPool.strs) > 0 {
						snis = vendorPool
						sniIdx = zipfIndex(rng, len(snis.strs))
					}
				}
				row.timeNS = startNS + rng.Int63n(windowSec)*int64(time.Second)
				// Intern only now, after the SSL3 substitution: the
				// record's stack and SNI are the first of their strings
				// the table may see.
				row.stack = stack.symbol(tab)
				row.sni = snis.sym(tab, sniIdx)
				stamper.add(row, stack, snis.strs[sniIdx], rng)
			}
		}
	}
	stamper.finish()
	ds.Records = Records{c: cols, hi: cols.len()}
	ds.applyFirmwareDrift(cfg)
	if m := cfg.Metrics; m != nil {
		m.Counter("dataset_devices_total").Add(int64(len(ds.Devices)))
		m.Counter("dataset_records_total").Add(int64(ds.Records.Len()))
		m.Counter("dataset_hello_cache_hits_total").Add(stamper.hits)
		m.Counter("dataset_hello_cache_misses_total").Add(stamper.misses)
	}
	return ds
}

// symPool is a string pool with a parallel slice of the strings'
// symbols, each interned at its first use.
type symPool struct {
	strs []string
	syms []intern.Symbol
}

func newSymPool(strs []string) symPool {
	return symPool{strs: strs, syms: make([]intern.Symbol, len(strs))}
}

// sym returns strs[i]'s symbol, interning it at first use.
func (p symPool) sym(tab *intern.Table, i int) intern.Symbol {
	if p.syms[i] == 0 {
		p.syms[i] = tab.Intern(p.strs[i])
	}
	return p.syms[i]
}

// deviceID formats seq as fmt.Sprintf("dev-%05d", seq) would.
func deviceID(seq int) string {
	var buf [24]byte
	b := append(buf[:0], "dev-"...)
	for w := 10000; w > 1 && seq < w; w /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(seq), 10))
}

// helloRandomOff is where the 32-byte client random sits in a marshaled
// record: record header (5) + handshake header (4) + legacy version (2).
const helloRandomOff = 5 + 4 + 2

// buildHelloTemplate marshals the record with a zeroed client random.
func buildHelloTemplate(print fingerprint.Fingerprint, sni string) []byte {
	raw, err := helloSkeleton(print, sni).Marshal()
	if err != nil {
		panic("dataset: marshal hello: " + err.Error())
	}
	return raw
}

// helloSkeleton builds the unmarshaled template hello: the print's
// version (clamped to the 1.2 legacy field), suites, and extension types
// in order, with server_name the only extension carrying a payload. The
// drift path (buildHelloTemplate13) fills the 1.3 extension payloads in
// before marshaling.
func helloSkeleton(print fingerprint.Fingerprint, sni string) *tlswire.ClientHello {
	legacy := print.Version
	if legacy > tlswire.VersionTLS12 {
		legacy = tlswire.VersionTLS12
	}
	ch := &tlswire.ClientHello{
		LegacyVersion: legacy,
		CipherSuites:  print.CipherSuites,
	}
	hasServerName := false
	for _, e := range print.Extensions {
		if e == uint16(tlswire.ExtServerName) {
			hasServerName = true
			break
		}
	}
	withSNI := hasServerName || sni != ""
	exts := make([]tlswire.Extension, 0, len(print.Extensions)+1)
	if withSNI {
		// Reserve the leading slot so server_name keeps its usual first
		// position; SetSNI below fills it in place.
		exts = append(exts, tlswire.Extension{Type: tlswire.ExtServerName})
	}
	for _, e := range print.Extensions {
		if e == uint16(tlswire.ExtServerName) {
			continue
		}
		exts = append(exts, tlswire.Extension{Type: tlswire.ExtensionType(e)})
	}
	ch.Extensions = exts
	if withSNI {
		ch.SetSNI(sni)
	}
	return ch
}

// zipfIndex picks an index with a popularity skew (low indices frequent).
func zipfIndex(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	// Square a uniform draw: ~2x mass on the first third.
	f := rng.Float64()
	return int(f * f * float64(n))
}

// sdkAppliesTo gates SDK installation by device type.
func sdkAppliesTo(sdk, typ string) bool {
	switch sdk {
	case "netflix", "roku-platform", "roku-platform-legacy", "mgo":
		return typ == TypeTV || typ == TypeStreamer
	case "sonos", "pandora", "spotify", "cast4audio":
		return typ == TypeSpeaker || typ == TypeAVR || typ == TypeStreamer || typ == TypeHub
	case "arlo":
		return typ == TypeCamera || typ == TypeRouter
	case "hdhomerun":
		return typ == TypeStreamer
	case "googleapis-shared":
		return true
	default:
		return true
	}
}

// modelNames builds the vendor's model list (the 286-model diversity).
func modelNames(v VendorProfile) []string {
	perType := 1 + v.Weight/60
	if perType > 6 {
		perType = 6
	}
	var out []string
	for _, typ := range v.Types {
		for i := 1; i <= perType; i++ {
			out = append(out, fmt.Sprintf("%s %s v%d", v.Name, typ, i))
		}
	}
	return out
}

// exactLibraryEntries picks the corpus entries used verbatim by the
// exact-match device population: mostly curl+OpenSSL, a couple Mbed TLS.
// The pick is built once per process; the slice is read-only.
var exactLibraryEntries = sync.OnceValue(func() []fingerprint.LibraryEntry {
	var out []fingerprint.LibraryEntry
	curl := libcorpus.CurlOpenSSL()
	for i := 0; i < len(curl) && len(out) < 14; i += len(curl)/14 + 1 {
		out = append(out, curl[i])
	}
	mbed := libcorpus.MbedTLS()
	out = append(out, mbed[40], mbed[100])
	return out
})

// Models returns the number of distinct models in the population.
func (ds *Dataset) Models() int {
	set := map[string]bool{}
	for _, d := range ds.Devices {
		set[d.Model] = true
	}
	return len(set)
}

// Users returns the number of distinct users in the population.
func (ds *Dataset) Users() int {
	set := map[string]bool{}
	for _, d := range ds.Devices {
		set[d.User] = true
	}
	return len(set)
}
