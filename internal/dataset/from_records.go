package dataset

import (
	"bytes"
	"sort"

	"repro/internal/intern"
)

// FromRecords reconstructs a canonical Dataset from observed records
// alone — the ingest service's path from an accepted record stream back
// to a batch-equivalent dataset. Devices are rebuilt from the identity
// fields every record carries (no Stacks: nothing downstream of
// generation reads them), sorted by ID; records are sorted by every
// field — (Time, DeviceID, StackID, SNI, Vendor, Model, Type, User,
// Raw) — and re-packed into a fresh columnar store, and a device takes
// its identity fields from its first record. Rows tied on every field
// are identical, so the result depends only on the *set* of records,
// never on arrival order: two services that accepted the same records —
// or a service and a batch run — produce byte-identical reports.
func FromRecords(records []Record) *Dataset {
	ds := &Dataset{
		SDKStacks:   map[string]*Stack{},
		VendorFQDNs: map[string][]string{},
	}
	rows := append([]Record(nil), records...)
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.DeviceID != b.DeviceID {
			return a.DeviceID < b.DeviceID
		}
		if a.StackID != b.StackID {
			return a.StackID < b.StackID
		}
		if a.SNI != b.SNI {
			return a.SNI < b.SNI
		}
		if a.Vendor != b.Vendor {
			return a.Vendor < b.Vendor
		}
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.User != b.User {
			return a.User < b.User
		}
		return bytes.Compare(a.Raw, b.Raw) < 0
	})
	ds.Records = RecordsFromRows(intern.NewTable(), rows)
	devByID := map[string]*Device{}
	for _, r := range rows {
		if devByID[r.DeviceID] != nil {
			continue
		}
		d := &Device{
			ID:     r.DeviceID,
			Vendor: r.Vendor,
			Model:  r.Model,
			Type:   r.Type,
			User:   r.User,
		}
		devByID[r.DeviceID] = d
		ds.Devices = append(ds.Devices, d)
	}
	sort.Slice(ds.Devices, func(i, j int) bool { return ds.Devices[i].ID < ds.Devices[j].ID })
	return ds
}
