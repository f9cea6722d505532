package dataset

import (
	"bytes"
	"testing"
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
	recs := RecordsFromRows(rows)
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
