// Package analysis computes every table and figure of the study from the
// ClientHello dataset (Section 4 and Appendix B) and the probed
// certificate dataset (Section 5 and Appendix C). It is the paper's
// measurement pipeline: internal/dataset supplies the wire-format
// observations, internal/simnet supplies the servers, and this package
// turns them into the published statistics.
package analysis

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/ciphersuite"
	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/obs"
	"repro/internal/tlswire"
)

// FingerprintInfo aggregates everything observed about one fingerprint.
type FingerprintInfo struct {
	// Print is the fingerprint tuple.
	Print fingerprint.Fingerprint
	// Key is Print.Key().
	Key string
	// Devices that exhibited the fingerprint.
	Devices StringSet
	// Vendors of those devices.
	Vendors StringSet
	// Types of those devices.
	Types StringSet
	// SNIs visited with this fingerprint.
	SNIs StringSet
	// Records is the number of ClientHellos carrying it.
	Records int
	// gen is the generation of the Client that may write this info in
	// place; any other Client copies it first (see Client.merge).
	gen uint64
}

// Client is the client-side analysis state, built by parsing every
// record's wire bytes. Its indexes are copy-on-write maps read through
// accessors, so Clone is O(1) in the state and a clone stays immutable
// while the original keeps merging (see cowMap).
type Client struct {
	DS *dataset.Dataset
	// gen is the generation this Client writes under: it writes a shard
	// or a FingerprintInfo in place only if that carries gen too.
	gen uint64
	// prints indexes fingerprints by key.
	prints cowMap[string, *FingerprintInfo]
	// devicePrints maps device -> set of fingerprint keys.
	devicePrints cowMap[string, StringSet]
	// deviceVendor and deviceType index device metadata.
	deviceVendor cowMap[string, string]
	deviceType   cowMap[string, string]
	// versionCounts tallies proposals per TLS version (Table 12).
	versionCounts cowMap[tlswire.Version, int]
	// sniDevices maps each SNI to the devices that visited it.
	sniDevices cowMap[string, StringSet]
	// orderedKeys caches sorted fingerprint keys. It is replaced, never
	// modified, so a clone may share it.
	orderedKeys []string
}

// NewClientEmpty builds a Client with no observations, the zero state a
// resident service grows by merging deltas. DS stays nil — every
// client-side table derives from the merged observations alone.
func NewClientEmpty() *Client {
	return &Client{
		gen:           nextGen(),
		prints:        cowMap[string, *FingerprintInfo]{hash: hashString},
		devicePrints:  cowMap[string, StringSet]{hash: hashString},
		deviceVendor:  cowMap[string, string]{hash: hashString},
		deviceType:    cowMap[string, string]{hash: hashString},
		versionCounts: cowMap[tlswire.Version, int]{hash: hashVersion},
		sniDevices:    cowMap[string, StringSet]{hash: hashString},
	}
}

// Fingerprint returns the aggregate of the fingerprint with the given
// key, or nil if no record carried it.
func (c *Client) Fingerprint(key string) *FingerprintInfo {
	info, _ := c.prints.get(key)
	return info
}

// FingerprintKeys returns every fingerprint key in sorted order. The
// slice is shared with the Client and must not be modified.
func (c *Client) FingerprintKeys() []string { return c.orderedKeys }

// DevicePrints returns the keys of the fingerprints a device exhibited.
func (c *Client) DevicePrints(dev string) StringSet {
	keys, _ := c.devicePrints.get(dev)
	return keys
}

// DeviceVendor returns a device's vendor ("" for an unknown device).
func (c *Client) DeviceVendor(dev string) string {
	v, _ := c.deviceVendor.get(dev)
	return v
}

// DeviceType returns a device's type ("" for an unknown device).
func (c *Client) DeviceType(dev string) string {
	t, _ := c.deviceType.get(dev)
	return t
}

// SNIDevices returns the devices that visited sni.
func (c *Client) SNIDevices(sni string) StringSet {
	devs, _ := c.sniDevices.get(sni)
	return devs
}

// Devices returns every known device ID in sorted order.
func (c *Client) Devices() []string { return sortedKeys(&c.deviceVendor) }

// SNIs returns every SNI some device visited, in sorted order.
func (c *Client) SNIs() []string { return sortedKeys(&c.sniDevices) }

func sortedKeys[V any](m *cowMap[string, V]) []string {
	out := make([]string, 0, m.len())
	m.each(func(k string, _ V) { out = append(out, k) })
	sort.Strings(out)
	return out
}

// aggregate is one ingest's result in string form: the unit that
// NewClientWorkers (the whole dataset) and MergeDelta (one batch) fold
// into a Client through the same merge.
type aggregate struct {
	prints       []*FingerprintInfo
	devicePrints []keyedSet
	sniDevices   []keyedSet
	versions     map[tlswire.Version]int
}

// keyedSet is one device's fingerprint keys or one SNI's devices.
type keyedSet struct {
	key string
	set StringSet
}

// merge folds an aggregate into c; it is the only path that grows a
// Client's observations. Writes go through the copy-on-write maps and
// are skipped when they change nothing: a union that adds no member
// keeps the stored set, so re-merging known records copies no device or
// SNI shard. A known FingerprintInfo is copied before its first write
// under c's generation; a new one is adopted, which moves it out of the
// aggregate. New keys are merged into a fresh orderedKeys slice, so a
// clone sharing the old one never sees it change.
func (c *Client) merge(a *aggregate) {
	var added []string
	for _, part := range a.prints {
		info := c.Fingerprint(part.Key)
		if info == nil {
			part.gen = c.gen
			c.prints.set(c.gen, part.Key, part)
			added = append(added, part.Key)
			continue
		}
		if info.gen != c.gen {
			cp := *info
			cp.gen = c.gen
			info = &cp
			c.prints.set(c.gen, info.Key, info)
		}
		info.Devices = unionSets(info.Devices, part.Devices)
		info.Vendors = unionSets(info.Vendors, part.Vendors)
		info.Types = unionSets(info.Types, part.Types)
		info.SNIs = unionSets(info.SNIs, part.SNIs)
		info.Records += part.Records
	}
	for _, e := range a.devicePrints {
		c.unionInto(&c.devicePrints, e)
	}
	for _, e := range a.sniDevices {
		c.unionInto(&c.sniDevices, e)
	}
	for v, n := range a.versions {
		old, _ := c.versionCounts.get(v)
		c.versionCounts.set(c.gen, v, old+n)
	}
	if len(added) > 0 {
		sort.Strings(added)
		c.orderedKeys = mergeSorted(c.orderedKeys, added)
	}
}

// unionInto unions e.set into m's set for e.key, writing only when the
// union adds a member. unionSets returns the stored set itself when it
// adds nothing, so an unchanged length means an unchanged set.
func (c *Client) unionInto(m *cowMap[string, StringSet], e keyedSet) {
	old, _ := m.get(e.key)
	if u := unionSets(old, e.set); len(u) != len(old) {
		m.set(c.gen, e.key, u)
	}
}

// setDevice records a device's vendor and type, writing only the values
// that change.
func (c *Client) setDevice(id, vendor, typ string) {
	if old, ok := c.deviceVendor.get(id); !ok || old != vendor {
		c.deviceVendor.set(c.gen, id, vendor)
	}
	if old, ok := c.deviceType.get(id); !ok || old != typ {
		c.deviceType.set(c.gen, id, typ)
	}
}

// mergeSorted returns the sorted union of two disjoint sorted key lists
// in a fresh slice.
func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// parseKey memoizes parsing per (stack, SNI-presence) pair, in symbol
// space. Every record of one stack carries the same ciphersuite and
// extension lists — only the 32-byte random and the SNI value differ —
// except that the server_name extension appears iff the record has an
// SNI or the stack always sends one. So two cache slots per stack
// cover every record, and parsing runs once per distinct stack instead
// of once per record. The comparable struct replaces the old
// stackID+"|s" string key, which concatenated per record.
type parseKey struct {
	stack  intern.Symbol
	hasSNI bool
}

// parsedRef is one memoized parse result: the ingest-dense print index
// plus the version the hot loop tallies, so shards never touch the
// shared print slice inside the record loop.
type parsedRef struct {
	idx     uint32
	version tlswire.Version
}

// printMeta is the materialized identity of one distinct fingerprint.
// staged marks a print the ingest's state had no key for: commit
// registers it.
type printMeta struct {
	key    string
	print  fingerprint.Fingerprint
	staged bool
}

// IngestState is the parse state that can outlive one ingest: the
// intern table batch identities resolve against, the arena holding
// every fingerprint's ciphersuite and extension lists, and the registry
// of distinct fingerprints, each with its Key(). A resident service
// keeps one for its whole life and shares it across its workers, so a
// batch pays only for the strings and prints the daemon has not seen
// before. An ingest writes nothing to the state while it runs: it
// stages the strings, lists and keys the state lacks, and only an
// ingest that succeeds commits them, so a rejected batch leaves the
// state as it was. Every part is append-only and safe for concurrent
// use. What a state has seen never changes what an ingest
// computes: symbols, handles and registry order depend on which batch
// came first, but every aggregate resolves them back to strings and
// sorts.
type IngestState struct {
	tab   *intern.Table
	arena *intern.Arena
	mu    sync.RWMutex
	keys  map[fingerprint.Interned]string
}

// NewIngestState returns an empty ingest state.
func NewIngestState() *IngestState {
	return &IngestState{
		tab:   intern.NewTable(),
		arena: intern.NewArena(),
		keys:  map[fingerprint.Interned]string{},
	}
}

// ingestCtx is one ingest's shared parse state over an IngestState: a
// two-level memo (L1 per shard, lock-free; this L2 under a mutex)
// guaranteeing the same raw bytes are parsed exactly once per ingest no
// matter how many shards see the stack, plus a dense index of the
// distinct fingerprints this ingest saw. The memo stays per ingest: it
// trusts a record's stack label, so sharing it across batches would let
// one batch's label decide another batch's fingerprints. The dense
// index numbers prints from 0 in order of first sight, so aggregation
// works on small slices even when the state knows thousands of prints.
// tab is the table the ingest's record symbols resolve against, and
// arena an overlay of the state's, which gives each print its
// ingest-stable identity.
type ingestCtx struct {
	st      *IngestState
	tab     *intern.Table
	arena   *intern.Arena
	mu      sync.Mutex
	parsed  map[parseKey]parsedRef
	byPrint map[fingerprint.Interned]uint32
	prints  []printMeta
	// parses counts actual wire parses (the ingest_parses_total
	// counter): at most one per distinct parseKey per ingest.
	parses int64
}

func (st *IngestState) newCtx(tab *intern.Table) *ingestCtx {
	return &ingestCtx{
		st:      st,
		tab:     tab,
		arena:   st.arena.Overlay(),
		parsed:  map[parseKey]parsedRef{},
		byPrint: map[fingerprint.Interned]uint32{},
	}
}

// lookupOrParse resolves pk, parsing raw only if no shard has resolved
// the key yet. Parse errors are returned, never cached. A print new to
// the ingest takes its Key() from the state's registry, and builds it
// only if the state has none.
func (cx *ingestCtx) lookupOrParse(pk parseKey, raw []byte) (parsedRef, error) {
	cx.mu.Lock()
	defer cx.mu.Unlock()
	if ref, ok := cx.parsed[pk]; ok {
		return ref, nil
	}
	ch, err := tlswire.ParseRecord(raw)
	if err != nil {
		return parsedRef{}, err
	}
	cx.parses++
	f := fingerprint.FromClientHelloOwned(ch)
	in := f.Intern(cx.arena)
	idx, ok := cx.byPrint[in]
	if !ok {
		cx.st.mu.RLock()
		key, known := cx.st.keys[in]
		cx.st.mu.RUnlock()
		if !known {
			key = f.Key()
		}
		idx = uint32(len(cx.prints))
		cx.prints = append(cx.prints, printMeta{key: key, print: f, staged: !known})
		cx.byPrint[in] = idx
	}
	ref := parsedRef{idx: idx, version: f.Version}
	cx.parsed[pk] = ref
	return ref, nil
}

// commit adds what the ingest staged to its state: the strings its
// overlay table holds, and each print the registry had no key for,
// with its lists. A print staged by two concurrent ingests keeps the
// first key registered; both are the same string.
func (cx *ingestCtx) commit() {
	cx.tab.Commit()
	for _, pm := range cx.prints {
		if !pm.staged {
			continue
		}
		in := pm.print.Intern(cx.st.arena)
		cx.st.mu.Lock()
		if _, ok := cx.st.keys[in]; !ok {
			cx.st.keys[in] = pm.key
		}
		cx.st.mu.Unlock()
	}
}

// edge is one (print, identity-symbol) observation.
type edge struct {
	p   uint32
	sym intern.Symbol
}

// sniEdge is one (SNI, device) observation.
type sniEdge struct {
	sni, dev intern.Symbol
}

// clientShard is one worker's partial aggregation state, kept entirely
// in symbol space: flat edge sets keyed by packed comparable structs
// instead of nested map-of-map string sets. Every field merges
// commutatively (set unions and count additions), so the final Client
// is identical for any shard count and any merge order; finalize
// converts the merged symbol-space state to the exported string form
// exactly once.
type clientShard struct {
	ctx           *ingestCtx
	memo          map[parseKey]parsedRef
	printRecords  map[uint32]int
	printDevices  map[edge]struct{}
	printVendors  map[edge]struct{}
	printTypes    map[edge]struct{}
	printSNIs     map[edge]struct{}
	sniDevices    map[sniEdge]struct{}
	versionCounts map[tlswire.Version]int
	errIdx        int
	err           error
	// memoHits / memoMisses tally the L1 parse-memo effectiveness;
	// records is the shard's input size. Plain ints: each shard owns
	// its own counters and the merge publishes totals once, so the hot
	// loop pays no atomics even when instrumentation is on.
	memoHits   int64
	memoMisses int64
	records    int64
}

func (s *clientShard) init(cx *ingestCtx) {
	s.ctx = cx
	s.memo = map[parseKey]parsedRef{}
	s.printRecords = map[uint32]int{}
	s.printDevices = map[edge]struct{}{}
	s.printVendors = map[edge]struct{}{}
	s.printTypes = map[edge]struct{}{}
	s.printSNIs = map[edge]struct{}{}
	s.sniDevices = map[sniEdge]struct{}{}
	s.versionCounts = map[tlswire.Version]int{}
}

// NewClientWorkers parses the dataset's raw ClientHello records and
// builds the fingerprint table, sharding ingestion across workers (<= 0:
// GOMAXPROCS). The result is byte-for-byte independent of the worker
// count; workers only shard the parsing and aggregation work.
func NewClientWorkers(ds *dataset.Dataset, workers int) (*Client, error) {
	return NewClientObserved(ds, workers, nil)
}

// NewClientObserved is NewClientWorkers with optional instrumentation:
// when m is non-nil it records ingest_records_total, the parse-memo
// hit/miss counters, and an ingest_seconds histogram (records/sec is the
// ratio of the first to the last). nil m costs nothing.
func NewClientObserved(ds *dataset.Dataset, workers int, m *obs.Registry) (*Client, error) {
	sw := obs.NewStopwatch()
	n := ds.Records.Len()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	c := NewClientEmpty()
	c.DS = ds
	for _, d := range ds.Devices {
		c.setDevice(d.ID, d.Vendor, d.Type)
	}

	cx := NewIngestState().newCtx(ds.Records.Table())
	shards := make([]clientShard, workers)
	var wg sync.WaitGroup
	per := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		shards[w].init(cx)
		wg.Add(1)
		go func(shard *clientShard, lo, hi int) {
			defer wg.Done()
			shard.ingest(ds.Records.Slice(lo, hi), lo)
		}(&shards[w], lo, hi)
	}
	wg.Wait()

	// Deterministic merge: the shard with the lowest-index parse error
	// wins (matching the sequential loop's first-error semantics), and
	// aggregate state merges by union/addition in symbol space before
	// one finalize pass converts it to string form.
	for i := range shards {
		if shards[i].err != nil {
			return nil, fmt.Errorf("analysis: record %d: %w", shards[i].errIdx, shards[i].err)
		}
	}
	var agg clientShard
	agg.init(cx)
	for i := range shards {
		agg.mergeFrom(&shards[i])
	}
	a := agg.finalize()
	c.merge(&a)

	if m != nil {
		var hits, misses, records int64
		for i := range shards {
			hits += shards[i].memoHits
			misses += shards[i].memoMisses
			records += shards[i].records
		}
		m.Counter("ingest_records_total").Add(records)
		m.Counter("ingest_memo_hits_total").Add(hits)
		m.Counter("ingest_memo_misses_total").Add(misses)
		m.Counter("ingest_parses_total").Add(cx.parses)
		m.Counter("ingest_fingerprints_total").Add(int64(c.NumFingerprints()))
		m.Histogram("ingest_seconds", obs.DurationBuckets).Observe(sw.Seconds())
	}
	return c, nil
}

// ingest aggregates one contiguous record view. base is the index of
// the view's first record in the full dataset, for error reporting.
// The loop reads columns directly — symbols and raw spans — and its
// only per-record writes are integer-keyed map inserts, so the hot
// path allocates nothing beyond amortized map growth.
func (s *clientShard) ingest(recs dataset.Records, base int) {
	n := recs.Len()
	s.records = int64(n)
	for i := 0; i < n; i++ {
		sniSym := recs.SNISym(i)
		pk := parseKey{stack: recs.StackSym(i), hasSNI: sniSym != 0}
		ref, ok := s.memo[pk]
		if ok {
			s.memoHits++
		} else {
			s.memoMisses++
			var err error
			ref, err = s.ctx.lookupOrParse(pk, recs.Raw(i))
			if err != nil {
				s.err = err
				s.errIdx = base + i
				return
			}
			s.memo[pk] = ref
		}
		devSym := recs.DeviceSym(i)
		s.printRecords[ref.idx]++
		s.printDevices[edge{ref.idx, devSym}] = struct{}{}
		s.printVendors[edge{ref.idx, recs.VendorSym(i)}] = struct{}{}
		s.printTypes[edge{ref.idx, recs.TypeSym(i)}] = struct{}{}
		if sniSym != 0 {
			s.printSNIs[edge{ref.idx, sniSym}] = struct{}{}
			s.sniDevices[sniEdge{sniSym, devSym}] = struct{}{}
		}
		s.versionCounts[ref.version]++
	}
}

// mergeFrom folds another shard's symbol-space aggregate into s. Both
// shards must share one ingestCtx (print indices and symbols resolve
// against the same registries). All operations are commutative and
// associative, so any merge order yields the same final state.
func (s *clientShard) mergeFrom(o *clientShard) {
	for idx, n := range o.printRecords {
		s.printRecords[idx] += n
	}
	for e := range o.printDevices {
		s.printDevices[e] = struct{}{}
	}
	for e := range o.printVendors {
		s.printVendors[e] = struct{}{}
	}
	for e := range o.printTypes {
		s.printTypes[e] = struct{}{}
	}
	for e := range o.printSNIs {
		s.printSNIs[e] = struct{}{}
	}
	for e := range o.sniDevices {
		s.sniDevices[e] = struct{}{}
	}
	for v, n := range o.versionCounts {
		s.versionCounts[v] += n
	}
}

// finalize converts the merged symbol-space aggregate into string
// form: edges become sorted StringSets, and symbols resolve through the
// intern table (no new string is allocated — the sets share the
// interned instances).
func (s *clientShard) finalize() aggregate {
	cx := s.ctx
	a := aggregate{
		prints:   make([]*FingerprintInfo, 0, len(s.printRecords)),
		versions: s.versionCounts,
	}
	infos := make([]FingerprintInfo, len(cx.prints))
	infoByIdx := make([]*FingerprintInfo, len(cx.prints))
	for idx, n := range s.printRecords {
		pm := cx.prints[idx]
		info := &infos[idx]
		info.Print = pm.print
		info.Key = pm.key
		info.Records = n
		infoByIdx[idx] = info
		a.prints = append(a.prints, info)
	}
	// Each edge set becomes a sub-slice carved out of one shared backing
	// array per category: count first, then hand every print a
	// capacity-clamped view sized exactly, so filling allocates nothing
	// per set. Every edge's print has at least one record, so
	// infoByIdx[e.p] is always non-nil here.
	fillSets := func(edges map[edge]struct{}, slot func(*FingerprintInfo) *StringSet) {
		counts := make([]int, len(infoByIdx))
		for e := range edges {
			counts[e.p]++
		}
		backing := make([]string, len(edges))
		off := 0
		for idx, n := range counts {
			if n == 0 {
				continue
			}
			*slot(infoByIdx[idx]) = backing[off : off : off+n]
			off += n
		}
		for e := range edges {
			sl := slot(infoByIdx[e.p])
			*sl = append(*sl, cx.tab.Str(e.sym))
		}
	}
	fillSets(s.printDevices, func(i *FingerprintInfo) *StringSet { return &i.Devices })
	fillSets(s.printVendors, func(i *FingerprintInfo) *StringSet { return &i.Vendors })
	fillSets(s.printTypes, func(i *FingerprintInfo) *StringSet { return &i.Types })
	fillSets(s.printSNIs, func(i *FingerprintInfo) *StringSet { return &i.SNIs })
	for _, info := range a.prints {
		sort.Strings(info.Devices)
		sort.Strings(info.Vendors)
		sort.Strings(info.Types)
		sort.Strings(info.SNIs)
	}

	a.devicePrints = cx.groupSets(len(s.printDevices), func(add func(owner intern.Symbol, member string)) {
		for e := range s.printDevices {
			add(e.sym, infoByIdx[e.p].Key)
		}
	})
	a.sniDevices = cx.groupSets(len(s.sniDevices), func(add func(owner intern.Symbol, member string)) {
		for e := range s.sniDevices {
			add(e.sni, cx.tab.Str(e.dev))
		}
	})
	return a
}

// groupSets groups n (owner, member) pairs, which pairs yields twice in
// any order, into one sorted set per owner. The sets are carved out of
// one backing array, like fillSets', and owners stay symbols until each
// set's key is resolved once.
func (cx *ingestCtx) groupSets(n int, pairs func(add func(owner intern.Symbol, member string))) []keyedSet {
	slot := map[intern.Symbol]int{}
	var counts []int
	pairs(func(owner intern.Symbol, _ string) {
		i, ok := slot[owner]
		if !ok {
			i = len(counts)
			slot[owner] = i
			counts = append(counts, 0)
		}
		counts[i]++
	})
	out := make([]keyedSet, len(counts))
	backing := make([]string, n)
	off := 0
	for owner, i := range slot {
		out[i] = keyedSet{key: cx.tab.Str(owner), set: backing[off : off : off+counts[i]]}
		off += counts[i]
	}
	pairs(func(owner intern.Symbol, member string) {
		e := &out[slot[owner]]
		e.set = append(e.set, member)
	})
	for _, e := range out {
		sort.Strings(e.set)
	}
	return out
}

// NumFingerprints returns the number of distinct fingerprints (the
// paper's 903).
func (c *Client) NumFingerprints() int { return c.prints.len() }

// VendorGraph builds the Figure 1 bipartite graph: vendors on the left,
// fingerprints on the right.
func (c *Client) VendorGraph() *graph.Bipartite {
	g := graph.New()
	for _, key := range c.orderedKeys {
		for _, vendor := range c.Fingerprint(key).Vendors {
			g.AddEdge(vendor, key)
		}
	}
	return g
}

// TypeGraphForVendor builds the Figure 3 graph for one vendor: device
// types on the left, fingerprints on the right.
func (c *Client) TypeGraphForVendor(vendor string) *graph.Bipartite {
	g := graph.New()
	for _, key := range c.orderedKeys {
		info := c.Fingerprint(key)
		if !info.Vendors.Has(vendor) {
			continue
		}
		for _, dev := range info.Devices {
			if c.DeviceVendor(dev) == vendor {
				g.AddEdge(c.DeviceType(dev), key)
			}
		}
	}
	return g
}

// DeviceGraphForVendorType restricts Figure 4 to one device type
// (Amazon Echo in the paper = Amazon speakers here).
func (c *Client) DeviceGraphForVendorType(vendor, typ string) *graph.Bipartite {
	g := graph.New()
	c.devicePrints.each(func(dev string, prints StringSet) {
		if c.DeviceVendor(dev) != vendor || c.DeviceType(dev) != typ {
			return
		}
		for _, key := range prints {
			g.AddEdge(dev, key)
		}
	})
	return g
}

// Table2 is the fingerprint vendor-degree distribution.
func (c *Client) Table2() graph.DegreeDistribution {
	return c.VendorGraph().DegreeDistribution()
}

// DoCVendorAll returns DoC_vendor for every vendor (Figure 2, red line).
func (c *Client) DoCVendorAll() map[string]float64 {
	return c.VendorGraph().DoCAll()
}

// DoCDeviceAll returns DoC_device (the mean per-device DoC within each
// vendor; Figure 2, blue line). Every vendor of a known device is a key; one
// without a printed device maps to 0.
func (c *Client) DoCDeviceAll() map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, d := range c.deviceDoCs(func(string) bool { return true }) {
		sums[d.vendor] += d.doc
		counts[d.vendor]++
	}
	out := map[string]float64{}
	for _, vendor := range c.vendorNames() {
		out[vendor] = 0
		if n := counts[vendor]; n > 0 {
			out[vendor] = sums[vendor] / float64(n)
		}
	}
	return out
}

// DeviceDoCsForVendor returns the per-device DoC values of one vendor
// (Figure 10 rows), in device-ID order.
func (c *Client) DeviceDoCsForVendor(vendor string) []float64 {
	devs := c.deviceDoCs(func(v string) bool { return v == vendor })
	out := make([]float64, len(devs))
	for i, d := range devs {
		out[i] = d.doc
	}
	return out
}

// deviceDoC is one device's degree of customization within its vendor.
type deviceDoC struct {
	id, vendor string
	keys       StringSet
	doc        float64
}

// deviceDoCs computes, in one pass over devicePrints, the DoC of every
// device whose vendor keep accepts: the fraction of the device's
// fingerprints that no other device of its vendor uses (graph.DoC on the
// vendor's device-fingerprint graph). Devices come back sorted by ID, so
// a sum over them is the same to the bit on every call.
func (c *Client) deviceDoCs(keep func(vendor string) bool) []deviceDoC {
	type use struct{ vendor, key string }
	users := map[use]int{}
	var devs []deviceDoC
	c.devicePrints.each(func(id string, keys StringSet) {
		vendor := c.DeviceVendor(id)
		if !keep(vendor) {
			return
		}
		devs = append(devs, deviceDoC{id: id, vendor: vendor, keys: keys})
		for _, key := range keys {
			users[use{vendor, key}]++
		}
	})
	sort.Slice(devs, func(i, j int) bool { return devs[i].id < devs[j].id })
	for i := range devs {
		d := &devs[i]
		solely := 0
		for _, key := range d.keys {
			if users[use{d.vendor, key}] == 1 {
				solely++
			}
		}
		d.doc = float64(solely) / float64(len(d.keys))
	}
	return devs
}

func (c *Client) vendorNames() []string {
	set := map[string]bool{}
	c.deviceVendor.each(func(_, v string) { set[v] = true })
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Table3Row is one row of Table 3 (fingerprint heterogeneity within a
// vendor).
type Table3Row struct {
	Vendor          string
	NumFingerprints int
	SharedBy10Plus  float64 // fraction of the vendor's prints on >=10 devices
	UsedBySingleDev float64 // fraction used by exactly one device
}

// Table3 computes the heterogeneity rows for the topN vendors by
// fingerprint count.
func (c *Client) Table3(topN int) []Table3Row {
	// One pass over the fingerprints: each print's devices are counted
	// per vendor once, then credited to every vendor that uses it.
	type tally struct{ prints, shared10, single int }
	perVendor := map[string]*tally{}
	devices := map[string]int{} // vendor -> the print's devices of that vendor
	for _, key := range c.orderedKeys {
		info := c.Fingerprint(key)
		clear(devices)
		for _, dev := range info.Devices {
			devices[c.DeviceVendor(dev)]++
		}
		for _, vendor := range info.Vendors {
			t := perVendor[vendor]
			if t == nil {
				t = &tally{}
				perVendor[vendor] = t
			}
			t.prints++
			switch n := devices[vendor]; {
			case n >= 10:
				t.shared10++
			case n == 1:
				t.single++
			}
		}
	}
	rows := make([]Table3Row, 0, len(perVendor))
	for vendor, t := range perVendor {
		rows = append(rows, Table3Row{
			Vendor:          vendor,
			NumFingerprints: t.prints,
			SharedBy10Plus:  float64(t.shared10) / float64(t.prints),
			UsedBySingleDev: float64(t.single) / float64(t.prints),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].NumFingerprints != rows[j].NumFingerprints {
			return rows[i].NumFingerprints > rows[j].NumFingerprints
		}
		return rows[i].Vendor < rows[j].Vendor
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	return rows
}

// Table4 returns the vendor tuples with Jaccard similarity >= threshold.
func (c *Client) Table4(threshold float64) []graph.SimilarPair {
	return c.VendorGraph().SimilarPairs(threshold)
}

// Table5Row is one server-tied fingerprint row (Section 4.4).
type Table5Row struct {
	SLD        string
	FQDNs      int
	VulnLabels []string
	Devices    int
	Vendors    []string
	PrintKey   string
}

// Table5 finds {SLD, fingerprint} tuples where servers are tied to one
// fingerprint used by devices from multiple vendors. minDevices excludes
// one-device outliers (the paper requires >= 2).
func (c *Client) Table5(minDevices int) []Table5Row {
	// SNI -> set of fingerprint keys seen toward it.
	sniPrints := map[string]map[string]bool{}
	for _, key := range c.orderedKeys {
		for _, sni := range c.Fingerprint(key).SNIs {
			if sniPrints[sni] == nil {
				sniPrints[sni] = map[string]bool{}
			}
			sniPrints[sni][key] = true
		}
	}
	// Keep SNIs tied to exactly one fingerprint.
	type agg struct {
		fqdns   int
		devices map[string]bool
		vendors map[string]bool
	}
	tied := map[string]*agg{} // "sld|printKey" -> agg
	for sni, prints := range sniPrints {
		if len(prints) != 1 {
			continue
		}
		var key string
		for k := range prints {
			key = k
		}
		id := SLDOf(sni) + "|" + key
		a := tied[id]
		if a == nil {
			a = &agg{devices: map[string]bool{}, vendors: map[string]bool{}}
			tied[id] = a
		}
		a.fqdns++
		// Count the devices that actually visited this server (all of
		// them used the tied fingerprint by construction).
		for _, d := range c.SNIDevices(sni) {
			a.devices[d] = true
			a.vendors[c.DeviceVendor(d)] = true
		}
	}
	var rows []Table5Row
	for id, a := range tied {
		if len(a.vendors) < 2 || len(a.devices) < minDevices {
			continue
		}
		var sld, key string
		for i := 0; i < len(id); i++ {
			if id[i] == '|' {
				sld, key = id[:i], id[i+1:]
				break
			}
		}
		info := c.Fingerprint(key)
		var vulns []string
		for _, v := range info.Print.VulnClasses() {
			vulns = append(vulns, v.String())
		}
		vendors := make([]string, 0, len(a.vendors))
		for v := range a.vendors {
			vendors = append(vendors, v)
		}
		sort.Strings(vendors)
		rows = append(rows, Table5Row{
			SLD:        sld,
			FQDNs:      a.fqdns,
			VulnLabels: vulns,
			Devices:    len(a.devices),
			Vendors:    vendors,
			PrintKey:   key,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Devices != rows[j].Devices {
			return rows[i].Devices > rows[j].Devices
		}
		if rows[i].SLD != rows[j].SLD {
			return rows[i].SLD < rows[j].SLD
		}
		return rows[i].PrintKey < rows[j].PrintKey
	})
	return rows
}

// ServerTiedSNIFraction returns the fraction of SNIs tied to a single
// fingerprint that is used by multiple devices (the paper's 17.42%),
// excluding fingerprints matched to known libraries when a matcher is
// provided.
func (c *Client) ServerTiedSNIFraction(matcher *fingerprint.Matcher) float64 {
	sniPrints := map[string]map[string]bool{}
	for _, key := range c.orderedKeys {
		if matcher != nil {
			if _, ok := matcher.MatchExact(c.Fingerprint(key).Print); ok {
				continue
			}
		}
		for _, sni := range c.Fingerprint(key).SNIs {
			if sniPrints[sni] == nil {
				sniPrints[sni] = map[string]bool{}
			}
			sniPrints[sni][key] = true
		}
	}
	if len(sniPrints) == 0 {
		return 0
	}
	tied := 0
	for _, prints := range sniPrints {
		if len(prints) != 1 {
			continue
		}
		for key := range prints {
			if len(c.Fingerprint(key).Devices) >= 2 {
				tied++
			}
		}
	}
	return float64(tied) / float64(len(sniPrints))
}

// VulnStats summarizes Section 4.2's vulnerability findings.
type VulnStats struct {
	// TotalFingerprints across the dataset.
	TotalFingerprints int
	// WithVulnerable counts fingerprints with >= 1 vulnerable component.
	WithVulnerable int
	// VulnUsedByMultipleDevices counts vulnerable fingerprints on >= 2
	// devices.
	VulnUsedByMultipleDevices int
	// ByClass counts fingerprints per vulnerable component family.
	ByClass map[ciphersuite.VulnClass]int
	// AwfulFingerprints counts fingerprints with anon/export/NULL suites.
	AwfulFingerprints int
	// AwfulDevices / AwfulVendors count the devices and vendors proposing
	// them.
	AwfulDevices int
	AwfulVendors []string
}

// Vulnerabilities computes the Section 4.2 statistics.
func (c *Client) Vulnerabilities() VulnStats {
	st := VulnStats{
		TotalFingerprints: c.prints.len(),
		ByClass:           map[ciphersuite.VulnClass]int{},
	}
	awfulVendors := map[string]bool{}
	awfulDevices := map[string]bool{}
	for _, key := range c.orderedKeys {
		info := c.Fingerprint(key)
		classes := info.Print.VulnClasses()
		if len(classes) == 0 {
			continue
		}
		st.WithVulnerable++
		if len(info.Devices) >= 2 {
			st.VulnUsedByMultipleDevices++
		}
		awful := false
		for _, cl := range classes {
			st.ByClass[cl]++
			switch cl {
			case ciphersuite.VulnAnonKex, ciphersuite.VulnExport,
				ciphersuite.VulnNULL, ciphersuite.VulnKRB5Export, ciphersuite.VulnRC2:
				awful = true
			}
		}
		if awful {
			st.AwfulFingerprints++
			for _, d := range info.Devices {
				awfulDevices[d] = true
			}
			for _, v := range info.Vendors {
				awfulVendors[v] = true
			}
		}
	}
	st.AwfulDevices = len(awfulDevices)
	for v := range awfulVendors {
		st.AwfulVendors = append(st.AwfulVendors, v)
	}
	sort.Strings(st.AwfulVendors)
	return st
}

// SLDOf re-exports simnet's SLD extraction for analysis consumers without
// importing simnet (avoids a dependency cycle for server analysis).
func SLDOf(fqdn string) string {
	// Duplicated two-label suffix logic, kept in sync with simnet.SLDOf.
	dots := 0
	for i := len(fqdn) - 1; i >= 0; i-- {
		if fqdn[i] == '.' {
			dots++
			if dots == 2 {
				candidate := fqdn[i+1:]
				switch candidate {
				case "co.kr", "co.uk", "com.cn", "ntp.org":
					// Need three labels.
					for j := i - 1; j >= 0; j-- {
						if fqdn[j] == '.' {
							return fqdn[j+1:]
						}
					}
					return fqdn
				}
				return candidate
			}
		}
	}
	return fqdn
}
