package analysis

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
)

// sortedPrintKeys lists the client's fingerprint keys in sorted order,
// the invariant orderedKeys must hold after every merge.
func sortedPrintKeys(c *Client) []string {
	out := make([]string, 0, len(c.Prints))
	for k := range c.Prints {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestMergeDeltaKeepsOrderedKeys merges shuffled deltas, among them
// repeats of earlier batches that add no new fingerprint, and checks
// after every merge that orderedKeys is exactly the sorted key set of
// Prints. MergeDelta rebuilds orderedKeys only when a fingerprint is
// added, so both kinds of delta must occur. A Clone taken before a merge
// that adds a fingerprint must keep its old keys.
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

	c := NewClientEmpty()
	var adding, known int
	for i, b := range batches {
		d, err := NewDelta(b)
		if err != nil {
			t.Fatal(err)
		}
		before := c.Clone()
		beforeKeys := append([]string(nil), before.orderedKeys...)
		c.MergeDelta(d)
		if got, want := c.orderedKeys, sortedPrintKeys(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("merge %d: orderedKeys has %d keys, want the %d sorted keys of Prints", i, len(got), len(want))
		}
		if len(c.Prints) == len(before.Prints) {
			known++
			continue
		}
		adding++
		if !reflect.DeepEqual(before.orderedKeys, beforeKeys) || len(before.orderedKeys) != len(before.Prints) {
			t.Fatalf("merge %d: a clone taken before the merge changed its keys (%d -> %d)",
				i, len(beforeKeys), len(before.orderedKeys))
		}
	}
	if adding == 0 || known == 0 {
		t.Fatalf("merges adding fingerprints: %d, adding none: %d; want both kinds", adding, known)
	}
	batchClient, err := NewClientWorkers(dataset.FromRecords(rows), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.orderedKeys, batchClient.orderedKeys) {
		t.Fatal("delta-grown orderedKeys differ from the batch client's")
	}
}
