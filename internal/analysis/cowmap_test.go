package analysis

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// cloneSink keeps a benchmarked Clone on the heap, as a published
// snapshot is.
var cloneSink *Client

// TestCloneAllocsDoNotGrowWithState pins Clone's cost: one allocation,
// the Client holding the three shard-pointer arrays, whether the state
// is a scale-0.3 or a scale-3 population.
func TestCloneAllocsDoNotGrowWithState(t *testing.T) {
	allocs := func(scale float64) float64 {
		c, err := NewClientWorkers(dataset.Generate(dataset.Config{Seed: 20231024, Scale: scale}), 0)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { cloneSink = c.Clone() })
	}
	small, large := allocs(0.3), allocs(3)
	if small != 1 || large != 1 {
		t.Fatalf("Clone allocates %v times at scale 0.3 and %v at scale 3; want 1 at both", small, large)
	}
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestReMergeCopiesNoDeviceOrSNIShard re-merges, after a Clone, batches
// whose records the client already holds. Every device and SNI union
// then adds nothing, so the merge must leave every device and SNI shard
// shared with the clone. What it may copy is bounded by the batch's
// fingerprints: per print, one FingerprintInfo (its record count moves)
// and one prints shard.
func TestReMergeCopiesNoDeviceOrSNIShard(t *testing.T) {
	rows := dataset.Generate(dataset.Config{Seed: 20231024, Scale: 0.3}).Records.Rows()
	const batch = 25
	var batches [][]dataset.Record
	for lo := 0; lo < len(rows); lo += batch {
		batches = append(batches, rows[lo:min(lo+batch, len(rows))])
	}
	c := NewClientEmpty()
	for _, b := range batches {
		d, err := NewDelta(b)
		if err != nil {
			t.Fatal(err)
		}
		c.MergeDelta(d)
	}
	// A print costs 4 allocations: its info copy, and a shard struct, a
	// map header and the map's storage for its shard's copy. With Go 1.24
	// every batch of seeds 1, 4242 and 20231024 measured exactly that,
	// plus at most 2 from elsewhere in the process; the fifth allocation
	// covers those.
	const allocsPerPrint = 5
	for i := 0; i < len(batches); i += 7 {
		d, err := NewDelta(batches[i])
		if err != nil {
			t.Fatal(err)
		}
		prints := len(d.agg.prints)
		snap := c.Clone()
		before := mallocs()
		c.MergeDelta(d)
		allocs := mallocs() - before
		if allocs > uint64(allocsPerPrint*prints) {
			t.Errorf("batch %d: re-merge of %d known prints allocated %d times, bound %d",
				i, prints, allocs, allocsPerPrint*prints)
		}
		for s := range c.sniDevices.shards {
			if c.sniDevices.shards[s] != snap.sniDevices.shards[s] ||
				c.devices.shards[s] != snap.devices.shards[s] {
				t.Fatalf("batch %d: re-merge copied device or SNI shard %d", i, s)
			}
		}
	}
}
