package dataset

import (
	"bytes"
	"slices"
	"sort"
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

// snisByMinUsersMap is the map-based SNI filter SNIsByMinUsers replaced:
// one set entry per distinct (SNI, user) pair, one count per SNI.
func snisByMinUsersMap(ds *Dataset, minUsers int) []string {
	type sniUser struct{ sni, user intern.Symbol }
	seen := map[sniUser]bool{}
	count := map[intern.Symbol]int{}
	for i := 0; i < ds.Records.Len(); i++ {
		sym := ds.Records.SNISym(i)
		if sym == 0 {
			continue
		}
		su := sniUser{sym, ds.Records.UserSym(i)}
		if !seen[su] {
			seen[su] = true
			count[sym]++
		}
	}
	var out []string
	for sym, n := range count {
		if n >= minUsers {
			out = append(out, ds.Records.Table().Str(sym))
		}
	}
	sort.Strings(out)
	return out
}

// TestSNIsByMinUsersMatchesMapReference checks the dense SNI filter
// against the map-based reference at three seeds and three thresholds,
// on a whole dataset and on a dataset whose records are a subview; at
// min-users 1 it checks SNIs() too.
func TestSNIsByMinUsersMatchesMapReference(t *testing.T) {
	for _, seed := range []int64{1, 4242, 20231024} {
		ds := Generate(Config{Seed: seed, Scale: 1})
		half := &Dataset{Records: ds.Records.Slice(ds.Records.Len()/4, ds.Records.Len()/2)}
		for _, minUsers := range []int{1, 3, 5} {
			for name, d := range map[string]*Dataset{"all": ds, "subview": half} {
				got, want := d.SNIsByMinUsers(minUsers), snisByMinUsersMap(d, minUsers)
				if !slices.Equal(got, want) {
					t.Errorf("seed %d, min-users %d, %s: %d SNIs, reference %d", seed, minUsers, name, len(got), len(want))
				}
				if minUsers == 1 && !slices.Equal(d.SNIs(), want) {
					t.Errorf("seed %d, %s: SNIs() has %d SNIs, reference %d", seed, name, len(d.SNIs()), len(want))
				}
				if len(want) == 0 {
					t.Errorf("seed %d, min-users %d, %s: reference kept no SNI", seed, minUsers, name)
				}
			}
		}
	}
}
