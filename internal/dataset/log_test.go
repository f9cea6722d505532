package dataset

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/intern"
)

// shuffledBatches cuts rows into n-record batches and shuffles them.
func shuffledBatches(rows []Record, n int, seed int64) [][]Record {
	var out [][]Record
	for lo := 0; lo < len(rows); lo += n {
		out = append(out, rows[lo:min(lo+n, len(rows))])
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestCanonicalMatchesFromRecords: a log fed shuffled 25-record batches,
// each packed over one shared table that already holds unrelated
// strings, canonicalizes to the same records and devices as FromRecords
// over the same rows. Symbol numbering and arrival order differ between
// the two; the canonical order compares strings, so neither may show.
func TestCanonicalMatchesFromRecords(t *testing.T) {
	for _, seed := range []int64{1, 4242} {
		rows := Generate(Config{Seed: seed, Scale: 0.1}).Records.Rows()
		tab := intern.NewTable()
		for _, s := range []string{"zz-unrelated", "0-unrelated", rows[len(rows)/2].SNI} {
			tab.Intern(s)
		}
		log := NewLog(tab)
		for _, b := range shuffledBatches(rows, 25, seed) {
			log.Append(RecordsFromRows(tab, b))
		}
		got, want := Canonical(log.Records()), FromRecords(rows)
		if got.Records.Len() != len(rows) {
			t.Fatalf("seed %d: %d canonical records, want %d", seed, got.Records.Len(), len(rows))
		}
		if !reflect.DeepEqual(got.Records.Rows(), want.Records.Rows()) {
			t.Fatalf("seed %d: canonical rows of the shuffled log differ from FromRecords'", seed)
		}
		if !reflect.DeepEqual(got.Devices, want.Devices) {
			t.Fatalf("seed %d: canonical devices of the shuffled log differ from FromRecords'", seed)
		}
	}
}

// TestCanonicalDeviceIdentity: a device takes its fields from its
// earliest record, ties broken by Vendor, Type, Model and User — not
// from the first record of the full order, which compares StackID and
// SNI before Vendor.
func TestCanonicalDeviceIdentity(t *testing.T) {
	a := Generate(Config{Seed: 1, Scale: 0.02}).Records.At(0)
	a.SNI, a.Vendor, a.Type = "b.example", "Alpha", "camera"
	b := a
	b.SNI, b.Vendor, b.Type = "a.example", "Beta", "tv"
	for name, tc := range map[string]struct {
		b          Record
		vendor, ty string
	}{
		"equal times": {b, "Alpha", "camera"}, // b sorts first, a names the device
		"b earlier":   {withTime(b, a, -1), "Beta", "tv"},
		"b later":     {withTime(b, a, 1), "Alpha", "camera"},
	} {
		for _, rows := range [][]Record{{a, tc.b}, {tc.b, a}} {
			ds := FromRecords(rows)
			if len(ds.Devices) != 1 {
				t.Fatalf("%s: %d devices, want 1", name, len(ds.Devices))
			}
			if d := ds.Devices[0]; d.Vendor != tc.vendor || d.Type != tc.ty {
				t.Fatalf("%s: device is %s/%s, want %s/%s", name, d.Vendor, d.Type, tc.vendor, tc.ty)
			}
		}
	}
}

// withTime returns r at ref's time plus sign nanoseconds.
func withTime(r, ref Record, sign int) Record {
	r.Time = ref.Time.Add(time.Duration(sign))
	return r
}

// TestLogAppendPanicsOnForeignTable: symbols mean nothing outside their
// table, so appending a view packed over another table panics.
func TestLogAppendPanicsOnForeignTable(t *testing.T) {
	rows := Generate(Config{Seed: 1, Scale: 0.02}).Records.Rows()[:3]
	log := NewLog(intern.NewTable())
	log.Append(Records{}) // the zero view is empty and has no table
	defer func() {
		if recover() == nil {
			t.Fatal("appending records of another table did not panic")
		}
		if log.Len() != 0 {
			t.Fatalf("the panicking append left %d records", log.Len())
		}
	}()
	log.Append(RecordsFromRows(intern.NewTable(), rows))
}

// TestLogViewsSurviveAppends appends record by record, so the columns
// reallocate and the wire bytes span many chunks, while a reader keeps
// re-reading views taken earlier: each must keep reading the records it
// was taken over. Run it under -race: appends write only past a view.
// Bytes must cover every column and every wire byte.
func TestLogViewsSurviveAppends(t *testing.T) {
	rows := Generate(Config{Seed: 4242, Scale: 0.05}).Records.Rows()
	tab := intern.NewTable()
	log := NewLog(tab)
	views := make(chan Records, 16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := range views {
			for round := 0; round < 3; round++ {
				if got := v.Rows(); !reflect.DeepEqual(got, rows[:v.Len()]) {
					t.Errorf("a %d-record view changed under later appends", v.Len())
					return
				}
			}
		}
	}()
	wire := 0
	for i, r := range rows {
		log.Append(RecordsFromRows(tab, rows[i:i+1]))
		wire += len(r.Raw)
		if i%(len(rows)/12) == 0 {
			views <- log.Records()
		}
	}
	close(views)
	wg.Wait()
	if log.Len() != len(rows) || len(log.c.raw) < 3 {
		t.Fatalf("%d records in %d chunks; want %d records over at least 3 chunks", log.Len(), len(log.c.raw), len(rows))
	}
	for i, r := range rows {
		if !bytes.Equal(log.Records().Raw(i), r.Raw) {
			t.Fatalf("record %d: wire bytes differ", i)
		}
	}
	if min := int64(wire + 44*len(rows)); log.Bytes() < min {
		t.Fatalf("Bytes() = %d, below the %d the records occupy", log.Bytes(), min)
	}
}
