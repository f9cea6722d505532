package dataset_test

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dataset"
)

// TestFromRecordsIgnoresArrivalOrder: FromRecords orders records by every
// field, so two records that tie on (Time, DeviceID, StackID, SNI) but
// differ in any other field give the same dataset, and the same Client,
// in either arrival order. A device takes its vendor, model, type and
// user from its first record, so a partial order let arrival order pick
// them.
func TestFromRecordsIgnoresArrivalOrder(t *testing.T) {
	a := dataset.Generate(dataset.Config{Seed: 1, Scale: 0.02}).Records.At(0)
	a.Raw = append([]byte(nil), a.Raw...)
	variants := map[string]func(r *dataset.Record){
		"vendor": func(r *dataset.Record) { r.Vendor = "Other Vendor" },
		"model":  func(r *dataset.Record) { r.Model = "other-model" },
		"type":   func(r *dataset.Record) { r.Type = "other-type" },
		"user":   func(r *dataset.Record) { r.User = "other-user" },
		"raw":    func(r *dataset.Record) { r.Raw = append([]byte(nil), r.Raw...); r.Raw[20] ^= 0xFF },
	}
	for field, change := range variants {
		b := a
		change(&b)
		ab := dataset.FromRecords([]dataset.Record{a, b})
		ba := dataset.FromRecords([]dataset.Record{b, a})
		if !reflect.DeepEqual(ab.Devices, ba.Devices) {
			t.Fatalf("%s: devices depend on arrival order: %+v vs %+v", field, *ab.Devices[0], *ba.Devices[0])
		}
		if !reflect.DeepEqual(ab.Records.Rows(), ba.Records.Rows()) {
			t.Fatalf("%s: records depend on arrival order", field)
		}
		cab, err := analysis.NewClientWorkers(ab, 1)
		if err != nil {
			t.Fatal(err)
		}
		cba, err := analysis.NewClientWorkers(ba, 1)
		if err != nil {
			t.Fatal(err)
		}
		if cab.DeviceVendor(a.DeviceID) != cba.DeviceVendor(a.DeviceID) || cab.DeviceType(a.DeviceID) != cba.DeviceType(a.DeviceID) {
			t.Fatalf("%s: the Client's device depends on arrival order: vendor %q vs %q, type %q vs %q", field,
				cab.DeviceVendor(a.DeviceID), cba.DeviceVendor(a.DeviceID), cab.DeviceType(a.DeviceID), cba.DeviceType(a.DeviceID))
		}
	}
}
