package service

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
)

// FuzzDecodeBatch feeds arbitrary bodies to the POST /v1/batch decoder.
// It must never panic, and every body it accepts must round-trip:
// EncodeBatch of the decoded source and records decodes back to the
// same source and records. The seed corpus (testdata/fuzz) holds a
// valid body, a truncated one, a wrong-typed field, bad base64 and an
// empty record list.
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		source, records, err := decodeBatch(bytes.NewReader(body))
		if err != nil {
			return
		}
		enc, err := EncodeBatch(source, records)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		source2, records2, err := decodeBatch(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded batch is rejected: %v", err)
		}
		if source2 != source || len(records2) != len(records) {
			t.Fatalf("round trip: source %q with %d records, want %q with %d",
				source2, len(records2), source, len(records))
		}
		for i := range records {
			if !sameRecord(records[i], records2[i]) {
				t.Fatalf("round trip: record %d is %+v, want %+v", i, records2[i], records[i])
			}
		}
	})
}

// sameRecord compares two records field by field, times as instants.
func sameRecord(a, b dataset.Record) bool {
	return a.DeviceID == b.DeviceID && a.Vendor == b.Vendor && a.Model == b.Model &&
		a.Type == b.Type && a.User == b.User && a.Time.Equal(b.Time) &&
		a.SNI == b.SNI && a.StackID == b.StackID && bytes.Equal(a.Raw, b.Raw)
}
