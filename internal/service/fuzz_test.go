package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// FuzzDecodeBatch feeds arbitrary bodies to the POST /v1/batch decoder
// and checks it against referenceDecode, which runs encoding/json alone.
// decodeBatch must accept exactly the bodies the reference accepts, and
// decode each to the same source and to records that are
// reflect.DeepEqual to the reference's, so a nil versus an empty Raw and
// a Time's location count. Every accepted body must also round-trip:
// EncodeBatch of the decoded source and records decodes back to the same
// source and records. The seed corpus (testdata/fuzz) holds valid and
// broken bodies in EncodeBatch's form, and valid bodies outside it that
// only encoding/json decodes: escaped strings, keys out of order,
// indentation, an unknown field, a null and an empty raw, a repeated
// records key, an upper-case key, a non-ASCII model. Two bodies carry
// data after the batch.
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		source, records, err := decodeBatch(bytes.NewReader(body))
		refSource, refRecords, refErr := referenceDecode(body)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decodeBatch error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if source != refSource || !reflect.DeepEqual(records, refRecords) {
			t.Fatalf("decodeBatch gives source %q and %+v; reference gives %q and %+v",
				source, records, refSource, refRecords)
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

// TestEncodeBatchTakesFastPath: every body EncodeBatch writes, alone or
// with the newline json.Encoder appends, is one scanCanonical decodes,
// to what encoding/json decodes it to. The fallback would hide a scanner
// that gives up, so this pins that in-repo clients take the fast path.
func TestEncodeBatchTakesFastPath(t *testing.T) {
	recs := testRecords(t)
	for i, b := range batches(recs, 25) {
		body, err := EncodeBatch("src", b)
		if err != nil {
			t.Fatal(err)
		}
		for _, tail := range []string{"", "\n"} {
			source, records, end, ok := scanCanonical(append(body[:len(body):len(body)], tail...))
			if !ok || end != len(body) {
				t.Fatalf("batch %d with tail %q: scanner gave up (ok %v, end %d of %d)", i, tail, ok, end, len(body))
			}
			refSource, refRecords, err := referenceDecode(body)
			if err != nil {
				t.Fatal(err)
			}
			if source != refSource || !reflect.DeepEqual(records, refRecords) {
				t.Fatalf("batch %d: scanner and encoding/json decode different batches", i)
			}
		}
	}
}

// referenceDecode is the batch contract in encoding/json terms: one
// value decoded by a json.Decoder, nothing but whitespace after the
// offset where that value ends, a source, and at least one record.
func referenceDecode(body []byte) (string, []dataset.Record, error) {
	var batch wireBatch
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&batch); err != nil {
		return "", nil, err
	}
	for _, c := range body[dec.InputOffset():] {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return "", nil, errors.New("trailing data")
		}
	}
	if batch.Source == "" || len(batch.Records) == 0 {
		return "", nil, errors.New("no source or no records")
	}
	records := make([]dataset.Record, len(batch.Records))
	for i, wr := range batch.Records {
		records[i] = wr.record()
	}
	return batch.Source, records, nil
}

// sameRecord compares two records field by field, times as instants.
func sameRecord(a, b dataset.Record) bool {
	return a.DeviceID == b.DeviceID && a.Vendor == b.Vendor && a.Model == b.Model &&
		a.Type == b.Type && a.User == b.User && a.Time.Equal(b.Time) &&
		a.SNI == b.SNI && a.StackID == b.StackID && bytes.Equal(a.Raw, b.Raw)
}
