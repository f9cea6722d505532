package analysis_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

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

// benchSnap keeps each benchmarked Clone on the heap, as a published
// snapshot is.
var benchSnap *analysis.Client

// BenchmarkMergeCloneResend times one daemon publication at paper-scale
// state when a client re-sends records: MergeDelta of a 25-record batch
// the client already holds, then Clone.
func BenchmarkMergeCloneResend(b *testing.B) {
	rows := dataset.Generate(dataset.Config{Seed: 20231024, Scale: 1}).Records.Rows()
	var batches [][]dataset.Record
	for lo := 0; lo < len(rows); lo += 25 {
		batches = append(batches, rows[lo:min(lo+25, len(rows))])
	}
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
