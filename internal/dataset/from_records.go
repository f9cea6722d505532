package dataset

import (
	"bytes"
	"cmp"
	"slices"

	"repro/internal/intern"
)

// FromRecords reconstructs a canonical Dataset from observed records
// alone: it packs them into a fresh columnar store and returns their
// Canonical dataset.
func FromRecords(records []Record) *Dataset {
	return Canonical(RecordsFromRows(intern.NewTable(), records))
}

// Canonical reconstructs a Dataset from the records of rs alone — the
// ingest service's path from its accepted log back to a batch-equivalent
// dataset. Records are ordered by every field — (Time, DeviceID,
// StackID, SNI, Vendor, Model, Type, User, Raw) — and their symbol
// columns laid out in that order over rs's table; the new store shares
// rs's wire-byte chunks. Devices are rebuilt from the identity fields
// every record carries (no Stacks: nothing downstream of generation
// reads them), sorted by ID, and a device takes its fields from its
// earliest record, ties broken by Vendor, then Type, then Model, then
// User (the rule a live analysis.Client applies too). Rows tied on every
// field are identical, so the result depends only on the *set* of
// records, never on arrival order or on the table's symbol numbering:
// two services that accepted the same records — or a service and a
// batch run — produce byte-identical reports.
func Canonical(rs Records) *Dataset {
	ds := &Dataset{
		SDKStacks:   map[string]*Stack{},
		VendorFQDNs: map[string][]string{},
	}
	if rs.c == nil {
		rs = Records{c: newColumns()}
	}
	src := rs.c
	rank := symbolRanks(src.tab)
	// The sort compares integers: times, then symbol ranks in field
	// order, and bytes only for records tied on every other field.
	fields := [...][]intern.Symbol{src.device, src.stack, src.sni, src.vendor, src.model, src.typ, src.user}
	order := make([]int32, rs.Len())
	for i := range order {
		order[i] = int32(rs.lo + i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(src.timeNS[a], src.timeNS[b]); c != 0 {
			return c
		}
		for _, col := range fields {
			if c := cmp.Compare(rank[col[a]], rank[col[b]]); c != 0 {
				return c
			}
		}
		return bytes.Compare(src.rawSpan(src.rawOff[a], src.rawLen[a]), src.rawSpan(src.rawOff[b], src.rawLen[b]))
	})

	c := &columns{tab: src.tab, raw: slices.Clip(src.raw)}
	if k := len(c.raw) - 1; k >= 0 {
		c.rawFill = len(c.raw[k]) // an append starts a chunk of its own
	}
	c.reserve(len(order))
	for _, j := range order {
		c.appendSyms(src.device[j], src.vendor[j], src.model[j], src.typ[j], src.user[j], src.sni[j], src.stack[j],
			src.timeNS[j], src.rawOff[j], src.rawLen[j])
	}
	ds.Records = Records{c: c, hi: c.len()}

	// identity orders a device's records by (Time, Vendor, Type, Model,
	// User); its least record names the device.
	idFields := [...][]intern.Symbol{c.vendor, c.typ, c.model, c.user}
	identity := func(i, j int) int {
		if d := cmp.Compare(c.timeNS[i], c.timeNS[j]); d != 0 {
			return d
		}
		for _, col := range idFields {
			if d := cmp.Compare(rank[col[i]], rank[col[j]]); d != 0 {
				return d
			}
		}
		return 0
	}
	first := map[intern.Symbol]int{}
	var devices []intern.Symbol
	for i := range c.device {
		dev := c.device[i]
		if j, ok := first[dev]; !ok {
			first[dev] = i
			devices = append(devices, dev)
		} else if identity(i, j) < 0 {
			first[dev] = i
		}
	}
	slices.SortFunc(devices, func(a, b intern.Symbol) int { return cmp.Compare(rank[a], rank[b]) })
	for _, dev := range devices {
		i := first[dev]
		ds.Devices = append(ds.Devices, &Device{
			ID:     src.tab.Str(dev),
			Vendor: src.tab.Str(c.vendor[i]),
			Model:  src.tab.Str(c.model[i]),
			Type:   src.tab.Str(c.typ[i]),
			User:   src.tab.Str(c.user[i]),
		})
	}
	return ds
}

// symbolRanks returns, for every symbol tab has issued, the position of
// its string in the sorted order of all of them, so comparing two
// symbols' ranks compares their strings.
func symbolRanks(tab *intern.Table) []uint32 {
	strs := make([]string, tab.Len())
	for i := range strs {
		strs[i] = tab.Str(intern.Symbol(i))
	}
	bySym := make([]intern.Symbol, len(strs))
	for i := range bySym {
		bySym[i] = intern.Symbol(i)
	}
	slices.SortFunc(bySym, func(a, b intern.Symbol) int { return cmp.Compare(strs[a], strs[b]) })
	rank := make([]uint32, len(strs))
	for r, sym := range bySym {
		rank[sym] = uint32(r)
	}
	return rank
}
