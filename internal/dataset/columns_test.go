package dataset

import (
	"bytes"
	"testing"

	"repro/internal/intern"
)

// TestRawChunksKeepEveryRecord: records written across chunk boundaries,
// and one longer than a whole chunk, read back byte for byte through
// both Raw and At, and a view stays capacity-clamped so appending to it
// cannot overwrite the next record.
func TestRawChunksKeepEveryRecord(t *testing.T) {
	var rows []Record
	for i, n := range []int{100, 3000, 2000, minRawChunk, rawChunkSize + 1, 700, rawChunkSize - 1, 50} {
		raw := make([]byte, n)
		for j := range raw {
			raw[j] = byte(i*31 + j)
		}
		rows = append(rows, Record{DeviceID: "dev", Raw: raw})
	}
	recs := RecordsFromRows(intern.NewTable(), rows)
	if len(recs.c.raw) < 4 {
		t.Fatalf("%d chunks; the sizes above should span at least 4", len(recs.c.raw))
	}
	for i, r := range rows {
		got := recs.Raw(i)
		if !bytes.Equal(got, r.Raw) {
			t.Fatalf("record %d (%d bytes): Raw differs", i, len(r.Raw))
		}
		if !bytes.Equal(recs.At(i).Raw, r.Raw) {
			t.Fatalf("record %d (%d bytes): At(i).Raw differs", i, len(r.Raw))
		}
		if cap(got) != len(got) {
			t.Fatalf("record %d: view capacity %d exceeds its length %d", i, cap(got), len(got))
		}
	}
}

// TestStorageOrder: StorageOrder is a permutation of a view's indices
// along which the records' byte offsets strictly increase. Generation
// sorts records by time after writing their bytes, so on a generated
// dataset the order differs from the index order, and a sub-view gets
// its own order.
func TestStorageOrder(t *testing.T) {
	recs := Generate(Config{Seed: 1, Scale: 0.05}).Records
	for _, view := range []Records{recs, recs.Slice(recs.Len()/3, recs.Len()-7)} {
		order := view.StorageOrder()
		if len(order) != view.Len() {
			t.Fatalf("order has %d indices for %d records", len(order), view.Len())
		}
		seen := make([]bool, view.Len())
		moved := false
		for k, i := range order {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
			moved = moved || int(i) != k
			if k > 0 && view.c.rawOff[view.lo+int(order[k-1])] >= view.c.rawOff[view.lo+int(i)] {
				t.Fatalf("offsets do not increase at position %d", k)
			}
		}
		if !moved {
			t.Fatal("storage order equals index order on a generated dataset")
		}
	}
	if order := (Records{}).StorageOrder(); len(order) != 0 {
		t.Fatalf("zero view's order = %v", order)
	}
}
