// Package analysis computes every table and figure of the study from the
// ClientHello dataset (Section 4 and Appendix B) and the probed
// certificate dataset (Section 5 and Appendix C). It is the paper's
// measurement pipeline: internal/dataset supplies the wire-format
// observations, internal/simnet supplies the servers, and this package
// turns them into the published statistics.
package analysis

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/ciphersuite"
	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/obs"
	"repro/internal/simnet"
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
// while the original keeps merging (see cowMap). The tables read a
// dense index of the state, built on first use (see tableIndex).
type Client struct {
	sharedState
	index indexCell
}

// sharedState is everything a Clone shares with its original.
type sharedState struct {
	// gen is the generation this Client writes under: it writes a shard
	// or a FingerprintInfo in place only if that carries gen too.
	gen uint64
	// prints indexes fingerprints by key.
	prints cowMap[*FingerprintInfo]
	// devices maps each known device to its identity.
	devices cowMap[deviceIdentity]
	// sniDevices maps each SNI to the devices that visited it.
	sniDevices cowMap[StringSet]
	// orderedKeys caches sorted fingerprint keys. It is replaced, never
	// modified, so a clone may share it.
	orderedKeys []string
}

// NewClientEmpty builds a Client with no observations, the zero state a
// resident service grows by merging deltas. Every client-side table
// derives from the merged observations alone.
func NewClientEmpty() *Client {
	return &Client{sharedState: sharedState{gen: nextGen()}}
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

// DeviceVendor returns a device's vendor ("" for an unknown device).
func (c *Client) DeviceVendor(dev string) string {
	d, _ := c.devices.get(dev)
	return d.vendor
}

// DeviceType returns a device's type ("" for an unknown device).
func (c *Client) DeviceType(dev string) string {
	d, _ := c.devices.get(dev)
	return d.typ
}

// SNIDevices returns the devices that visited sni.
func (c *Client) SNIDevices(sni string) StringSet {
	devs, _ := c.sniDevices.get(sni)
	return devs
}

// Devices returns every known device ID in sorted order.
func (c *Client) Devices() []string { return sortedKeys(&c.devices) }

// SNIs returns every SNI some device visited, in sorted order.
func (c *Client) SNIs() []string { return sortedKeys(&c.sniDevices) }

func sortedKeys[V any](m *cowMap[V]) []string {
	out := make([]string, 0, m.len())
	m.each(func(k string, _ V) { out = append(out, k) })
	sort.Strings(out)
	return out
}

// aggregate is one ingest's result in string form: the unit that
// NewClientWorkers (the whole dataset) and MergeDelta (one batch) fold
// into a Client through the same merge.
type aggregate struct {
	prints     []*FingerprintInfo
	sniDevices []keyedSet
}

// keyedSet is one SNI's devices.
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
// clone sharing the old one never sees it change. It drops the index.
func (c *Client) merge(a *aggregate) {
	c.index = indexCell{}
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
		info.SNIs = unionSets(info.SNIs, part.SNIs)
		info.Records += part.Records
	}
	for _, e := range a.sniDevices {
		// Write only when the union adds a member. unionSets returns the
		// stored set itself when it adds nothing, so an unchanged length
		// means an unchanged set.
		old, _ := c.sniDevices.get(e.key)
		if u := unionSets(old, e.set); len(u) != len(old) {
			c.sniDevices.set(c.gen, e.key, u)
		}
	}
	if len(added) > 0 {
		sort.Strings(added)
		c.orderedKeys = mergeSorted(c.orderedKeys, added)
	}
}

// deviceIdentity is what a Client knows of one device: the vendor and
// type of its earliest record, ties broken by vendor, then type. The
// canonical dataset picks a device's fields by the same rule (see
// dataset.Canonical), so a live Client and the drained report agree
// whatever order the records arrived in.
type deviceIdentity struct {
	// firstNS is the earliest record's time in Unix nanoseconds; a
	// device taken from a dataset's device list has math.MinInt64.
	firstNS     int64
	vendor, typ string
}

// less orders identities by (firstNS, vendor, typ).
func (d deviceIdentity) less(o deviceIdentity) bool {
	if d.firstNS != o.firstNS {
		return d.firstNS < o.firstNS
	}
	if d.vendor != o.vendor {
		return d.vendor < o.vendor
	}
	return d.typ < o.typ
}

// setDevice records a device's identity unless the Client already holds
// one that is no greater. A write drops the index.
func (c *Client) setDevice(id string, d deviceIdentity) {
	if old, ok := c.devices.get(id); ok && !d.less(old) {
		return
	}
	c.index = indexCell{}
	c.devices.set(c.gen, id, d)
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

// printEntry is the materialized identity of one distinct fingerprint:
// its Key() and its tuple.
type printEntry struct {
	key   string
	print fingerprint.Fingerprint
}

// IngestState is the state that can outlive one ingest: the intern table
// batch identities resolve against, and the registry of distinct
// fingerprints by binary key (fingerprint.AppendRecordKey), each with
// its Key() and tuple. A resident service keeps one for its whole life
// and shares it across its workers, so a batch pays only for the strings
// and prints the daemon has not seen before. A fingerprint's identity is
// its hello's content alone, never a label the record carries. An
// ingest reads every record's key before it writes anything, so a batch
// with a malformed record leaves the state as it was. Both parts are
// append-only and safe for concurrent use. What a state has seen never
// changes what an ingest computes: symbols and registry order depend on
// which batch came first, but every aggregate resolves them back to
// strings and sorts.
type IngestState struct {
	tab    *intern.Table
	mu     sync.RWMutex
	prints map[string]*printEntry
}

// NewIngestState returns an empty ingest state.
func NewIngestState() *IngestState {
	return &IngestState{tab: intern.NewTable(), prints: map[string]*printEntry{}}
}

// Table returns the intern table the state's deltas resolve against.
func (st *IngestState) Table() *intern.Table { return st.tab }

// Size returns how many distinct strings (the empty string included)
// and fingerprints the state holds. Both only grow.
func (st *IngestState) Size() (strings, prints int) {
	st.mu.RLock()
	prints = len(st.prints)
	st.mu.RUnlock()
	return st.tab.Len(), prints
}

// entry returns the registered fingerprint with binary key key,
// registering it on first sight: only then does it build the tuple and
// its Key().
func (st *IngestState) entry(key []byte) *printEntry {
	st.mu.RLock()
	e := st.prints[string(key)]
	st.mu.RUnlock()
	if e != nil {
		return e
	}
	f := fingerprint.FromBinaryKey(key)
	e = &printEntry{key: f.Key(), print: f}
	st.mu.Lock()
	defer st.mu.Unlock()
	if old := st.prints[string(key)]; old != nil {
		return old
	}
	st.prints[string(key)] = e
	return e
}

// ingestCtx is one ingest's view of an IngestState: the table its record
// symbols resolve against, and a dense index of the distinct
// fingerprints the ingest saw, numbered from 0 in order of first sight,
// so aggregation works on small slices even when the state knows
// thousands of prints. Shards resolve a key here, under the mutex, only
// the first time they meet it.
type ingestCtx struct {
	st      *IngestState
	tab     *intern.Table
	mu      sync.Mutex
	byPrint map[*printEntry]uint32
	prints  []*printEntry
	// parses counts the distinct keys the ingest resolved (the
	// ingest_parses_total counter): one per key per ingest, whatever
	// the shard count.
	parses int64
}

func (st *IngestState) newCtx(tab *intern.Table) *ingestCtx {
	return &ingestCtx{st: st, tab: tab, byPrint: map[*printEntry]uint32{}}
}

// resolve returns the ingest's index of the fingerprint with binary key
// key.
func (cx *ingestCtx) resolve(key []byte) uint32 {
	cx.mu.Lock()
	defer cx.mu.Unlock()
	e := cx.st.entry(key)
	idx, ok := cx.byPrint[e]
	if !ok {
		idx = uint32(len(cx.prints))
		cx.prints = append(cx.prints, e)
		cx.byPrint[e] = idx
		cx.parses++
	}
	return idx
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
	ctx *ingestCtx
	// memo maps binary key to the print's ingest index; key is the
	// buffer each record's key is read into.
	memo         map[string]uint32
	key          []byte
	printRecords map[uint32]int
	printDevices map[edge]struct{}
	printVendors map[edge]struct{}
	printSNIs    map[edge]struct{}
	sniDevices   map[sniEdge]struct{}
	errIdx       int
	err          error
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
	s.memo = map[string]uint32{}
	s.key = make([]byte, 0, 512)
	s.printRecords = map[uint32]int{}
	s.printDevices = map[edge]struct{}{}
	s.printVendors = map[edge]struct{}{}
	s.printSNIs = map[edge]struct{}{}
	s.sniDevices = map[sniEdge]struct{}{}
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
	for _, d := range ds.Devices {
		c.setDevice(d.ID, deviceIdentity{firstNS: math.MinInt64, vendor: d.Vendor, typ: d.Type})
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
// The loop reads columns directly — symbols and raw spans — and reads
// each record's binary key into the shard's buffer; its only
// per-record writes are integer-keyed map inserts, so the hot path
// allocates nothing beyond amortized map growth. It visits the records
// in storage order, where reading their bytes costs less than half what
// it does in time order; aggregation does not depend on the order, and
// the error kept is the lowest-index one whatever the order.
func (s *clientShard) ingest(recs dataset.Records, base int) {
	s.records = int64(recs.Len())
	for _, j := range recs.StorageOrder() {
		i := int(j)
		key, err := fingerprint.AppendRecordKey(s.key[:0], recs.Raw(i))
		if err != nil {
			if s.err == nil || base+i < s.errIdx {
				s.err, s.errIdx = err, base+i
			}
			continue
		}
		s.key = key
		p, ok := s.memo[string(key)]
		if ok {
			s.memoHits++
		} else {
			s.memoMisses++
			p = s.ctx.resolve(key)
			s.memo[string(key)] = p
		}
		sniSym := recs.SNISym(i)
		devSym := recs.DeviceSym(i)
		s.printRecords[p]++
		s.printDevices[edge{p, devSym}] = struct{}{}
		s.printVendors[edge{p, recs.VendorSym(i)}] = struct{}{}
		if sniSym != 0 {
			s.printSNIs[edge{p, sniSym}] = struct{}{}
			s.sniDevices[sniEdge{sniSym, devSym}] = struct{}{}
		}
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
	for e := range o.printSNIs {
		s.printSNIs[e] = struct{}{}
	}
	for e := range o.sniDevices {
		s.sniDevices[e] = struct{}{}
	}
}

// finalize converts the merged symbol-space aggregate into string
// form: edges become sorted StringSets, and symbols resolve through the
// intern table (no new string is allocated — the sets share the
// interned instances).
func (s *clientShard) finalize() aggregate {
	cx := s.ctx
	a := aggregate{prints: make([]*FingerprintInfo, 0, len(s.printRecords))}
	infos := make([]FingerprintInfo, len(cx.prints))
	infoByIdx := make([]*FingerprintInfo, len(cx.prints))
	for idx, n := range s.printRecords {
		e := cx.prints[idx]
		info := &infos[idx]
		info.Print = e.print
		info.Key = e.key
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
	fillSets(s.printSNIs, func(i *FingerprintInfo) *StringSet { return &i.SNIs })
	for _, info := range a.prints {
		sort.Strings(info.Devices)
		sort.Strings(info.Vendors)
		sort.Strings(info.SNIs)
	}
	a.sniDevices = s.groupSNIs()
	return a
}

// groupSNIs groups the SNI edges into one sorted device set per SNI,
// in no particular order. The sets are carved out of one backing
// array, like fillSets', and SNIs stay symbols until each set's key is
// resolved once.
func (s *clientShard) groupSNIs() []keyedSet {
	tab := s.ctx.tab
	// slot counts each SNI's devices, then holds the SNI's index in out.
	slot := map[intern.Symbol]int{}
	for e := range s.sniDevices {
		slot[e.sni]++
	}
	out := make([]keyedSet, len(slot))
	backing := make([]string, len(s.sniDevices))
	i, off := 0, 0
	for sni, n := range slot {
		out[i] = keyedSet{key: tab.Str(sni), set: backing[off : off : off+n]}
		slot[sni] = i
		i++
		off += n
	}
	for e := range s.sniDevices {
		k := &out[slot[e.sni]]
		k.set = append(k.set, tab.Str(e.dev))
	}
	for _, k := range out {
		sort.Strings(k.set)
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
// (Amazon Echo in the paper = Amazon speakers here): the devices of
// that vendor and type on the left, the fingerprints each exhibited on
// the right.
func (c *Client) DeviceGraphForVendorType(vendor, typ string) *graph.Bipartite {
	g := graph.New()
	for _, key := range c.orderedKeys {
		for _, dev := range c.Fingerprint(key).Devices {
			if d, _ := c.devices.get(dev); d.vendor == vendor && d.typ == typ {
				g.AddEdge(dev, key)
			}
		}
	}
	return g
}

// Table2 is the fingerprint vendor-degree distribution: the degrees of
// the Figure 1 graph's fingerprint nodes.
func (c *Client) Table2() graph.DegreeDistribution {
	ix := c.tableIndex()
	var d graph.DegreeDistribution
	var c1, c2, c35, c5 int
	for _, vs := range ix.printVendors {
		switch n := len(vs); {
		case n == 0:
			continue
		case n == 1:
			c1++
		case n == 2:
			c2++
		case n <= 5:
			c35++
		default:
			c5++
		}
		d.Total++
	}
	if d.Total == 0 {
		return d
	}
	t := float64(d.Total)
	d.Deg1 = float64(c1) / t
	d.Deg2 = float64(c2) / t
	d.Deg3to5 = float64(c35) / t
	d.DegOver5 = float64(c5) / t
	return d
}

// DoCVendorAll returns DoC_vendor for every vendor of a fingerprint
// (Figure 2, red line): the fraction of the vendor's fingerprints that
// no other vendor uses.
func (c *Client) DoCVendorAll() map[string]float64 {
	ix := c.tableIndex()
	prints := make([]int, len(ix.vendors))
	solely := make([]int, len(ix.vendors))
	for _, vs := range ix.printVendors {
		for _, v := range vs {
			prints[v]++
			if len(vs) == 1 {
				solely[v]++
			}
		}
	}
	out := map[string]float64{}
	for v, n := range prints {
		if n > 0 {
			out[ix.vendors[v]] = float64(solely[v]) / float64(n)
		}
	}
	return out
}

// DoCDeviceAll returns DoC_device (the mean per-device DoC within each
// vendor; Figure 2, blue line). Every vendor of a known device is a key; one
// without a printed device maps to 0. Each mean sums in device-ID
// order (a vendor's rows are in ID order), so it is the same to the bit
// on every call.
func (c *Client) DoCDeviceAll() map[string]float64 {
	ix := c.tableIndex()
	doc, printed := ix.deviceDoCs()
	sums := make([]float64, len(ix.vendors))
	counts := make([]int, len(ix.vendors))
	for r, d := range doc {
		if printed[r] {
			sums[ix.devVendor[r]] += d
			counts[ix.devVendor[r]]++
		}
	}
	out := map[string]float64{}
	for v, name := range ix.vendors {
		if !ix.deviceVendor[v] {
			continue
		}
		out[name] = 0
		if counts[v] > 0 {
			out[name] = sums[v] / float64(counts[v])
		}
	}
	return out
}

// DeviceDoCsForVendor returns the per-device DoC values of one vendor
// (Figure 10 rows), in device-ID order.
func (c *Client) DeviceDoCsForVendor(vendor string) []float64 {
	ix := c.tableIndex()
	v, ok := slices.BinarySearch(ix.vendors, vendor)
	out := []float64{}
	if !ok {
		return out
	}
	doc, printed := ix.deviceDoCs()
	for r := ix.vendorRows[v]; r < ix.vendorRows[v+1]; r++ {
		if printed[r] {
			out = append(out, doc[r])
		}
	}
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
	ix := c.tableIndex()
	type tally struct{ prints, shared10, single int }
	perVendor := make([]tally, len(ix.vendors))
	devices := make([]int, len(ix.vendors)) // the print's devices per vendor
	for p, vs := range ix.printVendors {
		rows := ix.printDevs[p]
		for _, r := range rows {
			devices[ix.devVendor[r]]++
		}
		for _, v := range vs {
			t := &perVendor[v]
			t.prints++
			switch n := devices[v]; {
			case n >= 10:
				t.shared10++
			case n == 1:
				t.single++
			}
		}
		for _, r := range rows {
			devices[ix.devVendor[r]] = 0
		}
	}
	var rows []Table3Row
	for v, t := range perVendor {
		if t.prints == 0 {
			continue
		}
		rows = append(rows, Table3Row{
			Vendor:          ix.vendors[v],
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

// Table4 returns the vendor tuples with Jaccard similarity >= threshold
// over the vendors' fingerprint sets, most similar first.
func (c *Client) Table4(threshold float64) []graph.SimilarPair {
	ix := c.tableIndex()
	adj := ix.vendorPrints()
	var out []graph.SimilarPair
	for i := range adj {
		if len(adj[i]) == 0 {
			continue
		}
		for j := i + 1; j < len(adj); j++ {
			if len(adj[j]) == 0 {
				continue
			}
			if s := graph.JaccardSorted(adj[i], adj[j]); s >= threshold {
				out = append(out, graph.SimilarPair{A: ix.vendors[i], B: ix.vendors[j], Similarity: s})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
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
	ix := c.tableIndex()
	// tiedTo maps each SNI to the one print seen toward it, or to -1
	// once a second print is.
	tiedTo := map[string]int32{}
	for p, info := range ix.infos {
		for _, sni := range info.SNIs {
			if q, ok := tiedTo[sni]; !ok {
				tiedTo[sni] = int32(p)
			} else if q != int32(p) {
				tiedTo[sni] = -1
			}
		}
	}
	// The SNI is a client-supplied string, so the group key keeps the
	// SLD and the print apart rather than joining them into one string.
	type tie struct {
		sld   string
		print int32
	}
	groups := map[tie][]string{}
	for sni, p := range tiedTo {
		if p >= 0 {
			k := tie{simnet.SLDOf(sni), p}
			groups[k] = append(groups[k], sni)
		}
	}
	// Count the devices that actually visited a group's servers (all of
	// them used the tied fingerprint by construction); seen marks each
	// device and vendor with 1 + the group that last counted it.
	seenDev := make([]int32, len(ix.devVendor))
	seenVendor := make([]int32, len(ix.vendors))
	var rows []Table5Row
	mark := int32(0)
	for k, snis := range groups {
		mark++
		devices := 0
		var vendors []int32
		for _, sni := range snis {
			for _, d := range c.SNIDevices(sni) {
				r := ix.row(d)
				if seenDev[r] == mark {
					continue
				}
				seenDev[r] = mark
				devices++
				if v := ix.devVendor[r]; seenVendor[v] != mark {
					seenVendor[v] = mark
					vendors = append(vendors, v)
				}
			}
		}
		if len(vendors) < 2 || devices < minDevices {
			continue
		}
		info := ix.infos[k.print]
		var vulns []string
		for _, v := range info.Print.VulnClasses() {
			vulns = append(vulns, v.String())
		}
		slices.Sort(vendors)
		names := make([]string, len(vendors))
		for i, v := range vendors {
			names[i] = ix.vendors[v]
		}
		rows = append(rows, Table5Row{
			SLD:        k.sld,
			FQDNs:      len(snis),
			VulnLabels: vulns,
			Devices:    devices,
			Vendors:    names,
			PrintKey:   info.Key,
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
	ix := c.tableIndex()
	st := VulnStats{
		TotalFingerprints: c.prints.len(),
		ByClass:           map[ciphersuite.VulnClass]int{},
	}
	awfulVendors := make([]bool, len(ix.vendors))
	awfulDevices := make([]bool, len(ix.devVendor))
	for p, info := range ix.infos {
		classes := info.Print.VulnClasses()
		if len(classes) == 0 {
			continue
		}
		st.WithVulnerable++
		if len(ix.printDevs[p]) >= 2 {
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
			for _, r := range ix.printDevs[p] {
				if !awfulDevices[r] {
					awfulDevices[r] = true
					st.AwfulDevices++
				}
			}
			for _, v := range ix.printVendors[p] {
				awfulVendors[v] = true
			}
		}
	}
	for v, awful := range awfulVendors {
		if awful {
			st.AwfulVendors = append(st.AwfulVendors, ix.vendors[v])
		}
	}
	return st
}
