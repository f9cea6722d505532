package analysis

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/libcorpus"
)

// indexedTables renders every client table that reads the table index.
func indexedTables(c *Client) []any {
	m := libcorpus.NewMatcher()
	out := []any{
		c.Table2(), c.DoCVendorAll(), c.DoCDeviceAll(), c.Table3(10), c.Table4(0.2), c.Table5(2),
		c.Vulnerabilities(), c.Table11(m), c.Figure8(m, 10), c.Figure9(), c.Figure11(), c.Figure12(), c.Census(),
	}
	for _, vendor := range c.vendorNames() {
		out = append(out, c.DeviceDoCsForVendor(vendor))
	}
	return out
}

// TestTablesFollowStateChanges renders a Client, changes its state
// through MergeDelta, merge or setDevice, and renders again: the second
// render must equal a Client that reached the same state without
// rendering in between, so an index kept across the change fails.
func TestTablesFollowStateChanges(t *testing.T) {
	rows := dataset.Generate(dataset.Config{Seed: 4242, Scale: 0.3}).Records.Rows()
	half := len(rows) / 2
	deltas := func(rows []dataset.Record) []*Delta {
		var out []*Delta
		for lo := 0; lo < len(rows); lo += 200 {
			d, err := NewDelta(rows[lo:min(lo+200, len(rows))])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
		}
		return out
	}
	all, err := NewClientWorkers(dataset.FromRecords(rows), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := indexedTables(all)

	t.Run("MergeDelta", func(t *testing.T) {
		c := NewClientEmpty()
		for _, d := range deltas(rows[:half]) {
			c.MergeDelta(d)
		}
		before := indexedTables(c)
		for _, d := range deltas(rows[half:]) {
			c.MergeDelta(d)
		}
		if reflect.DeepEqual(before, want) {
			t.Fatal("the first half alone renders like every record; the test shows nothing")
		}
		if got := indexedTables(c); !reflect.DeepEqual(got, want) {
			t.Fatal("tables after MergeDelta differ from NewClientWorkers over every record")
		}
	})
	t.Run("merge", func(t *testing.T) {
		// addTwinPrint merges an aggregate alone, with no setDevice after.
		c, err := NewClientWorkers(dataset.FromRecords(rows), 0)
		if err != nil {
			t.Fatal(err)
		}
		indexedTables(c)
		addTwinPrint(t, c)
		fresh, err := NewClientWorkers(dataset.FromRecords(rows), 0)
		if err != nil {
			t.Fatal(err)
		}
		addTwinPrint(t, fresh)
		if !reflect.DeepEqual(indexedTables(c), indexedTables(fresh)) {
			t.Fatal("tables after merge differ from a Client merged before its first render")
		}
	})
	t.Run("setDevice", func(t *testing.T) {
		c, err := NewClientWorkers(dataset.FromRecords(rows), 0)
		if err != nil {
			t.Fatal(err)
		}
		dev := rows[0].DeviceID
		indexedTables(c)
		c.setDevice(dev, "Relabelled vendor", rows[0].Type)
		got := indexedTables(c)
		fresh, err := NewClientWorkers(dataset.FromRecords(rows), 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh.setDevice(dev, "Relabelled vendor", rows[0].Type)
		if reflect.DeepEqual(got, want) {
			t.Fatal("relabelling a device changed no table; the test shows nothing")
		}
		if !reflect.DeepEqual(got, indexedTables(fresh)) {
			t.Fatal("tables after setDevice differ from a Client relabelled before its first render")
		}
	})
}
