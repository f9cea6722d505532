package analysis

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
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
// the sorted-set form at the end. It is the oracle for the key-walk
// memoization, the sharded worker pool, and the symbol-space
// aggregation. It also returns the records per TLS version, tallied
// record by record, which Table12 must reproduce.
func newClientReference(t *testing.T, ds *dataset.Dataset) (*Client, map[tlswire.Version]int) {
	t.Helper()
	type rawInfo struct {
		print   fingerprint.Fingerprint
		devices map[string]bool
		vendors map[string]bool
		snis    map[string]bool
		records int
	}
	prints := map[string]*rawInfo{}
	sniDevices := map[string]map[string]bool{}
	versions := map[tlswire.Version]int{}
	c := NewClientEmpty()
	for _, d := range ds.Devices {
		c.devices.set(c.gen, d.ID, deviceIdentity{firstNS: math.MinInt64, vendor: d.Vendor, typ: d.Type})
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
				snis:    map[string]bool{},
			}
			prints[key] = info
		}
		info.devices[r.DeviceID] = true
		info.vendors[r.Vendor] = true
		if r.SNI != "" {
			info.snis[r.SNI] = true
			if sniDevices[r.SNI] == nil {
				sniDevices[r.SNI] = map[string]bool{}
			}
			sniDevices[r.SNI][r.DeviceID] = true
		}
		info.records++
		versions[f.Version]++
	}
	for key, info := range prints {
		c.prints.set(c.gen, key, &FingerprintInfo{
			Print:   info.print,
			Key:     key,
			Devices: setOf(info.devices),
			Vendors: setOf(info.vendors),
			SNIs:    setOf(info.snis),
			Records: info.records,
		})
	}
	for sni, devs := range sniDevices {
		c.sniDevices.set(c.gen, sni, setOf(devs))
	}
	return c, versions
}

// clientState is a Client's contents as plain maps, with every
// FingerprintInfo's generation cleared. Two Clients with the same
// contents have equal states under reflect.DeepEqual, however their
// shards and generations differ.
type clientState struct {
	prints     map[string]FingerprintInfo
	devices    map[string]deviceIdentity
	sniDevices map[string]StringSet
}

func stateOf(c *Client) clientState {
	st := clientState{
		prints:     map[string]FingerprintInfo{},
		devices:    plainMap(&c.devices),
		sniDevices: plainMap(&c.sniDevices),
	}
	c.prints.each(func(key string, info *FingerprintInfo) {
		v := *info
		v.gen = 0
		st.prints[key] = v
	})
	return st
}

func plainMap[V any](m *cowMap[V]) map[string]V {
	out := make(map[string]V, m.len())
	m.each(func(k string, v V) { out[k] = v })
	return out
}

// refCacheKey is a record's (StackID, SNI-presence) pair in string form.
func refCacheKey(r dataset.Record) string {
	if r.SNI != "" {
		return r.StackID + "|s"
	}
	return r.StackID + "|"
}

// TestStackParseCacheInvariant verifies a property of the generator:
// every record with the same (StackID, SNI-presence) pair yields the
// same fingerprint. Ingest no longer relies on it — it keys on each
// hello's content, and a record's label moves nothing — but the
// generated stacks should still behave like stacks.
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
// for several worker counts, and that Table12 reproduces the version
// counts parsed record by record.
func TestNewClientWorkersEquivalence(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: 11, Scale: 0.4})
	want, versions := newClientReference(t, ds)
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
		if !reflect.DeepEqual(gs.sniDevices, ws.sniDevices) {
			t.Fatalf("workers=%d: SNIDevices differ", workers)
		}
		if v := got.Table12(); !reflect.DeepEqual(v, versions) {
			t.Fatalf("workers=%d: Table12 %v, want %v (record by record)", workers, v, versions)
		}
		if !reflect.DeepEqual(gs.devices, ws.devices) {
			t.Fatalf("workers=%d: device vendors or types differ", workers)
		}
		if !reflect.DeepEqual(got.orderedKeys, want.orderedKeysForTest()) {
			t.Fatalf("workers=%d: orderedKeys differ", workers)
		}
	}
}

// TestIngestParsesOncePerKey pins the resolve-once guarantee: every
// record's binary key is read, and each shard numbers its own prints,
// but the ingest's registry holds each distinct key — each distinct
// fingerprint — once, regardless of worker count. The
// ingest_parses_total counter reads the registry's size, so it equals
// the number of distinct keys, never the record count.
func TestIngestParsesOncePerKey(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: 11, Scale: 0.4})
	distinct := map[string]bool{}
	for i, r := range ds.Records.Rows() {
		ch, err := r.Hello()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		distinct[fingerprint.FromClientHello(ch).Key()] = true
	}
	var parsesPerWorkers []int64
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		m := obs.NewRegistry("test")
		if _, err := NewClientObserved(ds, workers, m); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		parses := m.Counter("ingest_parses_total").Value()
		if parses != int64(len(distinct)) {
			t.Fatalf("workers=%d: ingest_parses_total = %d, want %d (distinct keys)",
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

// TestIngestReportsLowestFailingRecord: a shard reads its records in
// storage order and keeps going past a failure, so the error must still
// name the lowest failing index, for every worker count.
func TestIngestReportsLowestFailingRecord(t *testing.T) {
	rows := dataset.Generate(dataset.Config{Seed: 1, Scale: 0.05}).Records.Rows()
	for _, i := range []int{len(rows) * 3 / 5, len(rows)*3/5 + 4, len(rows) - 1} {
		rows[i].Raw = rows[i].Raw[:9]
	}
	ds := dataset.FromRecords(rows)
	lowest := -1
	for i := 0; i < ds.Records.Len() && lowest < 0; i++ {
		if _, err := tlswire.ParseRecord(ds.Records.Raw(i)); err != nil {
			lowest = i
		}
	}
	want := fmt.Sprintf("analysis: record %d: ", lowest)
	for _, workers := range []int{1, 2, 4, 7} {
		_, err := NewClientWorkers(ds, workers)
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("workers=%d: error %v, want one starting %q", workers, err, want)
		}
	}
}

// TestRejectedBatchLeavesStateUnchanged pins that only an accepted
// batch grows a shared IngestState. A batch whose last record's wire
// bytes do not parse is rejected; it must leave the state's strings and
// registered prints exactly as they were. The same batch without that
// record then adds both, and a re-send of it finds everything already
// there.
func TestRejectedBatchLeavesStateUnchanged(t *testing.T) {
	rows := dataset.Generate(dataset.Config{Seed: 1, Scale: 0.2}).Records.Rows()
	st := NewIngestState()
	size := func() [2]int {
		st.mu.RLock()
		defer st.mu.RUnlock()
		return [2]int{st.tab.Len(), len(st.prints)}
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
		t.Fatalf("rejected batch changed the state's [strings, prints] from %v to %v", before, got)
	}
	if _, err := st.NewDelta(good); err != nil {
		t.Fatal(err)
	}
	grown := size()
	for i, what := range []string{"strings", "prints"} {
		if grown[i] <= before[i] {
			t.Fatalf("accepted batch added no %s (%v to %v); the test batch must carry new ones", what, before, grown)
		}
	}
	if _, err := st.NewDelta(good); err != nil {
		t.Fatal(err)
	}
	if got := size(); got != grown {
		t.Fatalf("re-sent batch changed the state's [strings, prints] from %v to %v", grown, got)
	}
}

// TestColumnarRowRoundTrip checks the columnar store against its
// row-shaped view on a seeded dataset: At(i) and Rows() agree with the
// column accessors field by field, and Slice covers the same records.
// The stack label has no column accessor; it is read through At(i).
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

// BenchmarkNewClientIngestion times NewClientWorkers over the seed
// 20231024 dataset with one worker and with GOMAXPROCS. Scale 10 is the
// ingest on report-scale10's critical path; it is skipped under -short.
func BenchmarkNewClientIngestion(b *testing.B) {
	for _, scale := range []float64{1, 10} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			if scale > 1 && testing.Short() {
				b.Skip("scale 10 is skipped in -short")
			}
			ds := dataset.Generate(dataset.Config{Seed: 20231024, Scale: scale})
			for _, w := range []struct {
				name    string
				workers int
			}{{"workers=1", 1}, {"workers=max", runtime.GOMAXPROCS(0)}} {
				b.Run(w.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := NewClientWorkers(ds, w.workers); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
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
