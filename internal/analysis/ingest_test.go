package analysis

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/intern"
	"repro/internal/libcorpus"
	"repro/internal/obs"
	"repro/internal/tlswire"
)

// setOf converts an unordered set to the sorted StringSet form the
// client aggregate carries.
func setOf(m map[string]bool) StringSet {
	out := make(StringSet, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

// newClientReference is the seed's sequential, cache-free ingestion loop:
// every record is parsed individually into plain map sets, converted to
// the sorted-set form at the end. It is the oracle for the per-stack
// parse memoization, the sharded worker pool, and the symbol-space
// aggregation.
func newClientReference(t *testing.T, ds *dataset.Dataset) *Client {
	t.Helper()
	type rawInfo struct {
		print   fingerprint.Fingerprint
		devices map[string]bool
		vendors map[string]bool
		types   map[string]bool
		snis    map[string]bool
		records int
	}
	prints := map[string]*rawInfo{}
	devicePrints := map[string]map[string]bool{}
	sniDevices := map[string]map[string]bool{}
	versions := map[tlswire.Version]int{}
	c := NewClientEmpty()
	c.DS = ds
	for _, d := range ds.Devices {
		c.deviceVendor.set(c.gen, d.ID, d.Vendor)
		c.deviceType.set(c.gen, d.ID, d.Type)
	}
	for i, r := range ds.Records.Rows() {
		ch, err := r.Hello()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		f := fingerprint.FromClientHello(ch)
		key := f.Key()
		info := prints[key]
		if info == nil {
			info = &rawInfo{
				print:   f,
				devices: map[string]bool{},
				vendors: map[string]bool{},
				types:   map[string]bool{},
				snis:    map[string]bool{},
			}
			prints[key] = info
		}
		info.devices[r.DeviceID] = true
		info.vendors[r.Vendor] = true
		info.types[r.Type] = true
		if r.SNI != "" {
			info.snis[r.SNI] = true
			if sniDevices[r.SNI] == nil {
				sniDevices[r.SNI] = map[string]bool{}
			}
			sniDevices[r.SNI][r.DeviceID] = true
		}
		info.records++
		if devicePrints[r.DeviceID] == nil {
			devicePrints[r.DeviceID] = map[string]bool{}
		}
		devicePrints[r.DeviceID][key] = true
		versions[f.Version]++
	}
	for v, n := range versions {
		c.versionCounts.set(c.gen, v, n)
	}
	for key, info := range prints {
		c.prints.set(c.gen, key, &FingerprintInfo{
			Print:   info.print,
			Key:     key,
			Devices: setOf(info.devices),
			Vendors: setOf(info.vendors),
			Types:   setOf(info.types),
			SNIs:    setOf(info.snis),
			Records: info.records,
		})
	}
	for dev, keys := range devicePrints {
		c.devicePrints.set(c.gen, dev, setOf(keys))
	}
	for sni, devs := range sniDevices {
		c.sniDevices.set(c.gen, sni, setOf(devs))
	}
	return c
}

// clientState is a Client's contents as plain maps, with every
// FingerprintInfo's generation cleared. Two Clients with the same
// contents have equal states under reflect.DeepEqual, however their
// shards and generations differ.
type clientState struct {
	prints        map[string]FingerprintInfo
	devicePrints  map[string]StringSet
	deviceVendor  map[string]string
	deviceType    map[string]string
	versionCounts map[tlswire.Version]int
	sniDevices    map[string]StringSet
}

func stateOf(c *Client) clientState {
	st := clientState{
		prints:        map[string]FingerprintInfo{},
		devicePrints:  plainMap(&c.devicePrints),
		deviceVendor:  plainMap(&c.deviceVendor),
		deviceType:    plainMap(&c.deviceType),
		versionCounts: plainMap(&c.versionCounts),
		sniDevices:    plainMap(&c.sniDevices),
	}
	c.prints.each(func(key string, info *FingerprintInfo) {
		v := *info
		v.gen = 0
		st.prints[key] = v
	})
	return st
}

func plainMap[K comparable, V any](m *cowMap[K, V]) map[K]V {
	out := make(map[K]V, m.len())
	m.each(func(k K, v V) { out[k] = v })
	return out
}

// refCacheKey is the (StackID, SNI-presence) pair the parse memo keys
// on, in the seed's string form.
func refCacheKey(r dataset.Record) string {
	if r.SNI != "" {
		return r.StackID + "|s"
	}
	return r.StackID + "|"
}

// TestStackParseCacheInvariant verifies the dataset invariant the parse
// memoization depends on: every record with the same (StackID,
// SNI-presence) pair yields the same fingerprint.
func TestStackParseCacheInvariant(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: 7, Scale: 0.5})
	seen := map[string]string{}
	for i, r := range ds.Records.Rows() {
		ch, err := r.Hello()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		key := fingerprint.FromClientHello(ch).Key()
		ck := refCacheKey(r)
		if prev, ok := seen[ck]; ok {
			if prev != key {
				t.Fatalf("record %d: cache key %q maps to two fingerprints:\n  %s\n  %s", i, ck, prev, key)
			}
			continue
		}
		seen[ck] = key
	}
}

// TestNewClientWorkersEquivalence checks that sharded, memoized,
// symbol-space ingestion reproduces the reference loop state exactly
// for several worker counts.
func TestNewClientWorkersEquivalence(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: 11, Scale: 0.4})
	want := newClientReference(t, ds)
	for _, workers := range []int{1, 2, 4, 7, runtime.GOMAXPROCS(0)} {
		got, err := NewClientWorkers(ds, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		gs, ws := stateOf(got), stateOf(want)
		if len(gs.prints) != len(ws.prints) || got.NumFingerprints() != len(ws.prints) {
			t.Fatalf("workers=%d: %d prints (NumFingerprints %d), want %d",
				workers, len(gs.prints), got.NumFingerprints(), len(ws.prints))
		}
		for key, w := range ws.prints {
			g, ok := gs.prints[key]
			if !ok {
				t.Fatalf("workers=%d: missing print %s", workers, key)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("workers=%d: print %s differs:\n got %+v\nwant %+v", workers, key, g, w)
			}
		}
		if !reflect.DeepEqual(gs.devicePrints, ws.devicePrints) {
			t.Fatalf("workers=%d: DevicePrints differ", workers)
		}
		if !reflect.DeepEqual(gs.sniDevices, ws.sniDevices) {
			t.Fatalf("workers=%d: SNIDevices differ", workers)
		}
		if !reflect.DeepEqual(gs.versionCounts, ws.versionCounts) {
			t.Fatalf("workers=%d: VersionCounts differ", workers)
		}
		if !reflect.DeepEqual(gs.deviceVendor, ws.deviceVendor) || !reflect.DeepEqual(gs.deviceType, ws.deviceType) {
			t.Fatalf("workers=%d: device vendors or types differ", workers)
		}
		if !reflect.DeepEqual(got.orderedKeys, want.orderedKeysForTest()) {
			t.Fatalf("workers=%d: orderedKeys differ", workers)
		}
	}
}

// TestIngestParsesOncePerKey pins the parse-once guarantee: the shared
// two-level memo parses each distinct (stack, SNI-presence) key exactly
// once per run, regardless of worker count — the ingest_parses_total
// counter equals the number of distinct keys, never the record count.
func TestIngestParsesOncePerKey(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: 11, Scale: 0.4})
	distinct := map[string]bool{}
	for _, r := range ds.Records.Rows() {
		distinct[refCacheKey(r)] = true
	}
	var parsesPerWorkers []int64
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		m := obs.NewRegistry("test")
		if _, err := NewClientObserved(ds, workers, m); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		parses := m.Counter("ingest_parses_total").Value()
		if parses != int64(len(distinct)) {
			t.Fatalf("workers=%d: ingest_parses_total = %d, want %d (distinct parse keys)",
				workers, parses, len(distinct))
		}
		if parses >= int64(ds.Records.Len()) {
			t.Fatalf("workers=%d: parses (%d) not below record count (%d)",
				workers, parses, ds.Records.Len())
		}
		parsesPerWorkers = append(parsesPerWorkers, parses)
	}
	for _, p := range parsesPerWorkers[1:] {
		if p != parsesPerWorkers[0] {
			t.Fatalf("parse count varies with workers: %v", parsesPerWorkers)
		}
	}
}

// TestRejectedBatchLeavesStateUnchanged pins that only an accepted
// batch grows a shared IngestState. A batch whose last record's wire
// bytes do not parse is rejected after every other record was interned
// and parsed; it must leave the state's table, arena and key registry
// exactly as they were. The same batch without that record then
// commits, and a re-send of it finds everything already there.
func TestRejectedBatchLeavesStateUnchanged(t *testing.T) {
	rows := dataset.Generate(dataset.Config{Seed: 1, Scale: 0.2}).Records.Rows()
	st := NewIngestState()
	size := func() [3]int {
		st.mu.RLock()
		defer st.mu.RUnlock()
		return [3]int{st.tab.Len(), st.arena.Len(), len(st.keys)}
	}
	if _, err := st.NewDelta(rows[:25]); err != nil {
		t.Fatal(err)
	}
	good := rows[len(rows)-25:]
	bad := append([]dataset.Record(nil), good...)
	bad = append(bad, dataset.Record{
		DeviceID: "dev-never-seen", Vendor: "vendor-never-seen", StackID: "stack-never-seen",
		Raw: good[0].Raw[:9],
	})
	before := size()
	if _, err := st.NewDelta(bad); err == nil {
		t.Fatal("a batch with a truncated record parsed")
	}
	if got := size(); got != before {
		t.Fatalf("rejected batch changed the state's [strings, lists, keys] from %v to %v", before, got)
	}
	if _, err := st.NewDelta(good); err != nil {
		t.Fatal(err)
	}
	grown := size()
	for i, what := range []string{"strings", "lists", "keys"} {
		if grown[i] <= before[i] {
			t.Fatalf("accepted batch added no %s (%v to %v); the test batch must carry new ones", what, before, grown)
		}
	}
	if _, err := st.NewDelta(good); err != nil {
		t.Fatal(err)
	}
	if got := size(); got != grown {
		t.Fatalf("re-sent batch changed the state's [strings, lists, keys] from %v to %v", grown, got)
	}
}

// TestColumnarRowRoundTrip checks the columnar store against its
// row-shaped view on a seeded dataset: At(i) and Rows() agree with the
// column accessors field by field, and Slice covers the same records.
func TestColumnarRowRoundTrip(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: 3, Scale: 0.3})
	recs := ds.Records
	tab := recs.Table()
	rows := recs.Rows()
	if len(rows) != recs.Len() {
		t.Fatalf("Rows() len = %d, want %d", len(rows), recs.Len())
	}
	for i, r := range rows {
		if got := recs.At(i); !reflect.DeepEqual(got, r) {
			t.Fatalf("At(%d) != Rows()[%d]:\n got %+v\nwant %+v", i, i, got, r)
		}
		if got := tab.Str(recs.DeviceSym(i)); got != r.DeviceID {
			t.Fatalf("record %d: DeviceSym -> %q, want %q", i, got, r.DeviceID)
		}
		if got := tab.Str(recs.StackSym(i)); got != r.StackID {
			t.Fatalf("record %d: StackSym -> %q, want %q", i, got, r.StackID)
		}
		if got := tab.Str(recs.SNISym(i)); got != r.SNI {
			t.Fatalf("record %d: SNISym -> %q, want %q", i, got, r.SNI)
		}
		if (recs.SNISym(i) == 0) != (r.SNI == "") {
			t.Fatalf("record %d: SNISym zero-iff-empty violated", i)
		}
		if got := recs.TimeNS(i); got != r.Time.UnixNano() {
			t.Fatalf("record %d: TimeNS = %d, want %d", i, got, r.Time.UnixNano())
		}
		if !reflect.DeepEqual(recs.Raw(i), r.Raw) {
			t.Fatalf("record %d: Raw mismatch", i)
		}
	}
	// A round-trip through rows and back into a fresh columnar store
	// must reproduce every record.
	back := dataset.RecordsFromRows(intern.NewTable(), rows)
	for i := range rows {
		if !reflect.DeepEqual(back.At(i), rows[i]) {
			t.Fatalf("row->columns->row mismatch at %d", i)
		}
	}
	// Slicing is positional.
	if recs.Len() >= 10 {
		sub := recs.Slice(3, 10)
		for i := 0; i < sub.Len(); i++ {
			if !reflect.DeepEqual(sub.At(i), recs.At(3+i)) {
				t.Fatalf("Slice(3,10).At(%d) != At(%d)", i, 3+i)
			}
		}
	}
}

// orderedKeysForTest computes the sorted key list the reference client
// never built.
func (c *Client) orderedKeysForTest() []string {
	if c.orderedKeys != nil {
		return c.orderedKeys
	}
	out := make([]string, 0, c.prints.len())
	c.prints.each(func(k string, _ *FingerprintInfo) { out = append(out, k) })
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func BenchmarkNewClientIngestion(b *testing.B) {
	ds := dataset.Generate(dataset.Config{Seed: 20231024, Scale: 1})
	b.Run("workers=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewClientWorkers(ds, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workers=max", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewClientWorkers(ds, runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchMatcher() *fingerprint.Matcher { return libcorpus.NewMatcher() }

func BenchmarkMatchSemanticsCorpus(b *testing.B) {
	ds := dataset.Generate(dataset.Config{Seed: 11, Scale: 0.4})
	c, err := NewClientWorkers(ds, 0)
	if err != nil {
		b.Fatal(err)
	}
	lists := c.tableIndex().lists
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := benchMatcher()
			for _, l := range lists {
				m.MatchSemantics(l.suites)
			}
		}
	})
	b.Run("memoized", func(b *testing.B) {
		m := benchMatcher()
		for _, l := range lists {
			m.MatchSemantics(l.suites)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, l := range lists {
				m.MatchSemantics(l.suites)
			}
		}
	})
}
