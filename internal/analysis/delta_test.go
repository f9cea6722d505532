package analysis_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/libcorpus"
)

// accessorDump renders everything a Client's accessors expose in one
// canonical text: every fingerprint with its sets, every device with its
// vendor, type and prints, every SNI with its devices, and the version
// tally. Two Clients with equal dumps hold the same state, whatever
// their shards and generations.
func accessorDump(c *analysis.Client) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fingerprints %d\n", c.NumFingerprints())
	for _, key := range c.FingerprintKeys() {
		info := c.Fingerprint(key)
		fmt.Fprintf(&b, "print %s key=%s records=%d devices=%v vendors=%v types=%v snis=%v tuple=%v\n",
			key, info.Key, info.Records, info.Devices, info.Vendors, info.Types, info.SNIs, info.Print)
	}
	for _, dev := range c.Devices() {
		fmt.Fprintf(&b, "device %s vendor=%s type=%s prints=%v\n",
			dev, c.DeviceVendor(dev), c.DeviceType(dev), c.DevicePrints(dev))
	}
	for _, sni := range c.SNIs() {
		fmt.Fprintf(&b, "sni %s devices=%v\n", sni, c.SNIDevices(sni))
	}
	fmt.Fprintf(&b, "versions %v\n", c.Table12()) // fmt prints map keys sorted
	return b.String()
}

// clientTables renders the client-side report tables, as a snapshot
// report does.
func clientTables(c *analysis.Client, m *fingerprint.Matcher) []byte {
	var b bytes.Buffer
	st := core.Study{Config: core.Config{Workers: 2}, Client: c, Matcher: m}
	for _, t := range st.ClientTables() {
		t.WriteText(&b)
	}
	return b.Bytes()
}

// checkKeys checks that FingerprintKeys is exactly the sorted key set of the
// fingerprints: strictly increasing, one key per fingerprint, and each
// key resolving to its own FingerprintInfo.
func checkKeys(t *testing.T, what string, c *analysis.Client) {
	t.Helper()
	keys := c.FingerprintKeys()
	if len(keys) != c.NumFingerprints() {
		t.Fatalf("%s: %d ordered keys for %d fingerprints", what, len(keys), c.NumFingerprints())
	}
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			t.Fatalf("%s: ordered keys not strictly increasing at %d", what, i)
		}
		if info := c.Fingerprint(k); info == nil || info.Key != k {
			t.Fatalf("%s: ordered key %d does not resolve to its fingerprint", what, i)
		}
	}
}

// TestMergeDeltaKeepsOrderedKeys merges shuffled deltas, among them
// repeats of earlier batches that add no new fingerprint, and clones
// after every merge. MergeDelta replaces orderedKeys only when a
// fingerprint is added, so both kinds of delta must occur. Each clone
// must equal the batch client over the records merged before it, in
// every accessor's contents and in the rendered client tables; and
// after the last merge each clone must still render the bytes it did
// when taken: no later merge may write into state a clone shares.
func TestMergeDeltaKeepsOrderedKeys(t *testing.T) {
	rows := dataset.Generate(dataset.Config{Seed: 4242, Scale: 0.05}).Records.Rows()
	const batch = 40
	var batches [][]dataset.Record
	for lo := 0; lo < len(rows); lo += batch {
		batches = append(batches, rows[lo:min(lo+batch, len(rows))])
	}
	// Repeat a third of the batches: merged after their first copy, they
	// carry only fingerprints the client already has.
	for i := 0; i < len(batches); i += 3 {
		batches = append(batches, batches[i])
	}
	rand.New(rand.NewSource(7)).Shuffle(len(batches), func(i, j int) {
		batches[i], batches[j] = batches[j], batches[i]
	})

	type snapshot struct {
		client *analysis.Client
		dump   string
		tables []byte
	}
	matcher := libcorpus.NewMatcher()
	c := analysis.NewClientEmpty()
	var snaps []snapshot
	var merged []dataset.Record
	var adding, known int
	for i, b := range batches {
		d, err := analysis.NewDelta(b)
		if err != nil {
			t.Fatal(err)
		}
		n := c.NumFingerprints()
		c.MergeDelta(d)
		merged = append(merged, b...)
		what := fmt.Sprintf("merge %d", i)
		checkKeys(t, what, c)
		if c.NumFingerprints() == n {
			known++
		} else {
			adding++
		}

		snap := c.Clone()
		ref, err := analysis.NewClientWorkers(dataset.FromRecords(merged), 2)
		if err != nil {
			t.Fatal(err)
		}
		dump := accessorDump(snap)
		if dump != accessorDump(ref) {
			t.Fatalf("%s: clone's contents differ from the batch client over its %d records", what, len(merged))
		}
		tables := clientTables(snap, matcher)
		if !bytes.Equal(tables, clientTables(ref, matcher)) {
			t.Fatalf("%s: clone's client tables differ from the batch client's", what)
		}
		snaps = append(snaps, snapshot{snap, dump, tables})
	}
	if adding == 0 || known == 0 {
		t.Fatalf("merges adding fingerprints: %d, adding none: %d; want both kinds", adding, known)
	}
	for i, s := range snaps {
		checkKeys(t, fmt.Sprintf("clone %d after the last merge", i), s.client)
		if accessorDump(s.client) != s.dump {
			t.Fatalf("clone taken after merge %d changed its contents under later merges", i)
		}
		if !bytes.Equal(clientTables(s.client, matcher), s.tables) {
			t.Fatalf("clone taken after merge %d renders different tables after later merges", i)
		}
	}
}

// TestSharedIngestStateMatchesBatch builds deltas through one shared
// IngestState from four goroutines, in shuffled batch order with a
// third of the batches repeated, and merges them as they finish. The
// state's symbol and registry numbering then depend on the goroutines'
// interleaving; nothing observable may. Mixed in are rejected batches:
// copies of every fifth batch with a final record whose wire bytes are
// truncated, under identities no accepted batch carries. The merged
// client must equal NewClientWorkers over the accepted records in every
// accessor's contents and in the rendered client tables.
func TestSharedIngestStateMatchesBatch(t *testing.T) {
	rows := dataset.Generate(dataset.Config{Seed: 20231024, Scale: 0.2}).Records.Rows()
	const batch = 25
	var batches [][]dataset.Record
	for lo := 0; lo < len(rows); lo += batch {
		batches = append(batches, rows[lo:min(lo+batch, len(rows))])
	}
	for i := 0; i < len(batches); i += 3 {
		batches = append(batches, batches[i])
	}
	jobs := append([][]dataset.Record(nil), batches...)
	var rejected int
	for i := 0; i < len(batches); i += 5 {
		bad := append([]dataset.Record(nil), batches[i]...)
		jobs = append(jobs, append(bad, dataset.Record{
			DeviceID: fmt.Sprintf("rejected-device-%d", i),
			Vendor:   "rejected-vendor",
			SNI:      fmt.Sprintf("rejected-%d.example", i),
			StackID:  fmt.Sprintf("rejected-stack-%d", i),
			Raw:      bad[0].Raw[:9],
		}))
		rejected++
	}
	rand.New(rand.NewSource(11)).Shuffle(len(jobs), func(i, j int) {
		jobs[i], jobs[j] = jobs[j], jobs[i]
	})

	st := analysis.NewIngestState()
	work := make(chan []dataset.Record)
	deltas := make(chan *analysis.Delta)
	errs := make(chan error, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				d, err := st.NewDelta(b)
				if err != nil {
					errs <- err
					continue
				}
				deltas <- d
			}
		}()
	}
	go func() {
		for _, b := range jobs {
			work <- b
		}
		close(work)
		wg.Wait()
		close(deltas)
	}()
	c := analysis.NewClientEmpty()
	var merged int
	for d := range deltas {
		c.MergeDelta(d)
		merged++
	}
	if merged != len(batches) || len(errs) != rejected {
		t.Fatalf("merged %d deltas and rejected %d, want %d and %d", merged, len(errs), len(batches), rejected)
	}

	var all []dataset.Record
	for _, b := range batches {
		all = append(all, b...)
	}
	ref, err := analysis.NewClientWorkers(dataset.FromRecords(all), 2)
	if err != nil {
		t.Fatal(err)
	}
	checkKeys(t, "shared-state client", c)
	if accessorDump(c) != accessorDump(ref) {
		t.Fatal("shared-state client's contents differ from the batch client over the same records")
	}
	matcher := libcorpus.NewMatcher()
	if !bytes.Equal(clientTables(c, matcher), clientTables(ref, matcher)) {
		t.Fatal("shared-state client's tables differ from the batch client's")
	}
}

// relabellings returns rows under three stack_id assignments: one label
// on every record, a unique label per record, and the rows' own labels
// shuffled among them. A fingerprint is its hello's content, so none may
// move any.
func relabellings(rows []dataset.Record, seed int64) map[string][]dataset.Record {
	out := map[string][]dataset.Record{}
	relabel := func(name string, label func(i int) string) {
		rs := append([]dataset.Record(nil), rows...)
		for i := range rs {
			rs[i].StackID = label(i)
		}
		out[name] = rs
	}
	relabel("one", func(int) string { return "one-label" })
	relabel("unique", func(i int) string { return fmt.Sprintf("label-%d", i) })
	perm := rand.New(rand.NewSource(seed)).Perm(len(rows))
	relabel("shuffled", func(i int) string { return rows[perm[i]].StackID })
	return out
}

// TestRelabellingMovesNoFingerprint relabels the records of seeds 1 and
// 20231024 three ways (see relabellings) and checks every ingest path
// against the unrelabelled records: NewClientWorkers over FromRecords,
// NewDelta per 25-record batch, and IngestState.NewDelta per batch
// through one state that ingests the unrelabelled batches first and then
// every relabelling. Each must hold the same fingerprints and sets and
// render the same client tables.
func TestRelabellingMovesNoFingerprint(t *testing.T) {
	matcher := libcorpus.NewMatcher()
	for _, seed := range []int64{1, 20231024} {
		rows := dataset.Generate(dataset.Config{Seed: seed, Scale: 0.1}).Records.Rows()
		ref, err := analysis.NewClientWorkers(dataset.FromRecords(rows), 2)
		if err != nil {
			t.Fatal(err)
		}
		wantDump, wantTables := accessorDump(ref), clientTables(ref, matcher)
		check := func(what string, c *analysis.Client) {
			t.Helper()
			if accessorDump(c) != wantDump {
				t.Fatalf("seed %d, %s: contents differ from the unrelabelled records' (%d vs %d fingerprints)",
					seed, what, c.NumFingerprints(), ref.NumFingerprints())
			}
			if !bytes.Equal(clientTables(c, matcher), wantTables) {
				t.Fatalf("seed %d, %s: client tables differ from the unrelabelled records'", seed, what)
			}
		}
		shared := analysis.NewIngestState()
		viaBatches := func(rs []dataset.Record, newDelta func([]dataset.Record) (*analysis.Delta, error)) *analysis.Client {
			c := analysis.NewClientEmpty()
			for lo := 0; lo < len(rs); lo += 25 {
				d, err := newDelta(rs[lo:min(lo+25, len(rs))])
				if err != nil {
					t.Fatal(err)
				}
				c.MergeDelta(d)
			}
			return c
		}
		check("shared state, unrelabelled", viaBatches(rows, shared.NewDelta))
		relabelled := relabellings(rows, seed)
		for _, name := range []string{"one", "unique", "shuffled"} {
			rs := relabelled[name]
			c, err := analysis.NewClientWorkers(dataset.FromRecords(rs), 2)
			if err != nil {
				t.Fatal(err)
			}
			check(name+" labels, NewClientWorkers", c)
			check(name+" labels, NewDelta", viaBatches(rs, analysis.NewDelta))
			check(name+" labels, shared state", viaBatches(rs, shared.NewDelta))
		}
	}
}

// paperBatches is the daemon-ingest workload's pool: the seed-20231024
// paper-scale population in 25-record batches.
func paperBatches() [][]dataset.Record {
	rows := dataset.Generate(dataset.Config{Seed: 20231024, Scale: 1}).Records.Rows()
	var batches [][]dataset.Record
	for lo := 0; lo < len(rows); lo += 25 {
		batches = append(batches, rows[lo:min(lo+25, len(rows))])
	}
	return batches
}

// deltaSink keeps each benchmarked Delta on the heap, as a parsed batch
// waiting for the merger is.
var deltaSink *analysis.Delta

// BenchmarkNewDelta times parsing one batch of the paper-scale pool into
// a Delta, cycling through the pool: "fresh" starts every batch from an
// empty IngestState (NewDelta), "warm" goes through one shared state
// that has already seen the whole pool, as a resident service's state
// has when a client re-sends.
func BenchmarkNewDelta(b *testing.B) {
	batches := paperBatches()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := analysis.NewDelta(batches[i%len(batches)])
			if err != nil {
				b.Fatal(err)
			}
			deltaSink = d
		}
	})
	b.Run("warm", func(b *testing.B) {
		st := analysis.NewIngestState()
		for _, bt := range batches {
			if _, err := st.NewDelta(bt); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := st.NewDelta(batches[i%len(batches)])
			if err != nil {
				b.Fatal(err)
			}
			deltaSink = d
		}
	})
}

// benchSnap keeps each benchmarked Clone on the heap, as a published
// snapshot is.
var benchSnap *analysis.Client

// BenchmarkMergeCloneResend times one daemon publication at paper-scale
// state when a client re-sends records: MergeDelta of a 25-record batch
// the client already holds, then Clone.
func BenchmarkMergeCloneResend(b *testing.B) {
	batches := paperBatches()
	deltas := func() []*analysis.Delta {
		out := make([]*analysis.Delta, len(batches))
		for i, bt := range batches {
			d, err := analysis.NewDelta(bt)
			if err != nil {
				b.Fatal(err)
			}
			out[i] = d
		}
		return out
	}
	c := analysis.NewClientEmpty()
	for _, d := range deltas() {
		c.MergeDelta(d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var round []*analysis.Delta
	for i := 0; i < b.N; i++ {
		if len(round) == 0 {
			b.StopTimer()
			round = deltas()
			b.StartTimer()
		}
		c.MergeDelta(round[0])
		round = round[1:]
		benchSnap = c.Clone()
	}
}

// identityPair returns two one-record batches for one device: a with
// vendor "Insignia" and b with "Other Vendor" and another type, b at a's
// time plus gap.
func identityPair(gap time.Duration) (a, b dataset.Record) {
	a = dataset.Generate(dataset.Config{Seed: 1, Scale: 0.02}).Records.At(0)
	a.Raw = append([]byte(nil), a.Raw...)
	a.Vendor = "Insignia"
	b = a
	b.Vendor, b.Type = "Other Vendor", "other-type"
	b.Time = a.Time.Add(gap)
	return a, b
}

// TestDeviceIdentityIgnoresMergeOrder: a device takes its vendor and
// type from its earliest record, ties broken by vendor, so a Client
// merging the two records' deltas in either order names the device as
// NewClientWorkers over FromRecords does — with b an hour later, with
// the times equal, and with b an hour earlier.
func TestDeviceIdentityIgnoresMergeOrder(t *testing.T) {
	for _, tc := range []struct {
		gap    time.Duration
		vendor string
	}{{time.Hour, "Insignia"}, {0, "Insignia"}, {-time.Hour, "Other Vendor"}} {
		a, b := identityPair(tc.gap)
		ref, err := analysis.NewClientWorkers(dataset.FromRecords([]dataset.Record{a, b}), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := ref.DeviceVendor(a.DeviceID); got != tc.vendor {
			t.Fatalf("gap %v: the batch client names the device %q, want %q", tc.gap, got, tc.vendor)
		}
		for _, order := range [][]dataset.Record{{a, b}, {b, a}} {
			c := analysis.NewClientEmpty()
			for _, r := range order {
				d, err := analysis.NewDelta([]dataset.Record{r})
				if err != nil {
					t.Fatal(err)
				}
				c.MergeDelta(d)
			}
			if c.DeviceVendor(a.DeviceID) != tc.vendor || c.DeviceType(a.DeviceID) != ref.DeviceType(a.DeviceID) {
				t.Fatalf("gap %v, merged %s first: device is %s/%s, want %s/%s", tc.gap, order[0].Vendor,
					c.DeviceVendor(a.DeviceID), c.DeviceType(a.DeviceID), tc.vendor, ref.DeviceType(a.DeviceID))
			}
		}
	}
}
