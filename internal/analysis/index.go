package analysis

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// tableIndex is the dense form of one Client state that the Section 4
// and Appendix B tables read. It numbers vendors, devices and prints
// once, so a table counts over integer slices instead of repeating
// DeviceVendor lookups and building string-keyed maps of its own, and
// it groups the {device, ciphersuite list} tuples by list once for all
// the tables that weight a list by its devices.
//
// A Client builds its index on first use and keeps it until its state
// changes: merge and setDevice drop it, and a Clone starts without one.
// A published snapshot therefore builds at most one, however many
// reads render it. The index is immutable once built, so the table jobs
// of one render share it.
type tableIndex struct {
	// vendors holds every vendor name, sorted: each known device's and
	// each print's. A vendor's index is its rank, so a table that walks
	// indices in order emits vendors in name order.
	vendors []string
	// deviceVendor[v] reports whether a known device has vendor v, that
	// is whether v is a key of DoCDeviceAll.
	deviceVendor []bool
	// Rows number the known devices by vendor index, then by ID, so the
	// rows of vendor v are vendorRows[v] to vendorRows[v+1]-1, in ID
	// order. devVendor is each row's vendor index, and devRow maps a
	// device ID to its row.
	vendorRows []int32
	devVendor  []int32
	devRow     map[string]int32
	// infos holds the prints in FingerprintKeys order; printDevs and
	// printVendors give each print's device rows and vendor indices.
	infos        []*FingerprintInfo
	printDevs    [][]int32
	printVendors [][]int32
	// lists are the distinct ciphersuite lists, in order of first use
	// by a print.
	lists []suiteList
}

// suiteList is one distinct ciphersuite list and the devices proposing
// it. Each of its devices is one {device, ciphersuite list} tuple,
// Appendix B's unit of analysis (5,827 in the paper): the list stands
// for devices tuples, vendors[i].n of them from vendor vendors[i].v.
// Every Appendix B value depends on the list alone, so the tables
// evaluate it once per list and weight it by the vendor counts.
type suiteList struct {
	suites  []uint16
	devices int
	// vendors is sorted by vendor index, which is name order.
	vendors []vendorCount
}

// vendorCount is how many of a list's devices belong to one vendor.
type vendorCount struct {
	v int32
	n int
}

// indexCell holds a Client's lazily built index. Its zero value has
// none.
type indexCell struct {
	once sync.Once
	idx  *tableIndex
}

// tableIndex returns the Client's index, building it on first use. It
// is safe for concurrent use by readers; a Client must not be merged
// into while it is read.
func (c *Client) tableIndex() *tableIndex {
	c.index.once.Do(func() { c.index.idx = c.buildIndex() })
	return c.index.idx
}

// buildIndex numbers the Client's vendors, devices and prints and
// groups its prints' devices by ciphersuite list.
func (c *Client) buildIndex() *tableIndex {
	ix := &tableIndex{infos: make([]*FingerprintInfo, len(c.orderedKeys))}
	// devices counts the known devices per vendor; named numbers every
	// vendor once the names are sorted.
	devices := map[string]int32{}
	c.devices.each(func(_ string, d deviceIdentity) { devices[d.vendor]++ })
	named := map[string]int32{}
	for v := range devices {
		named[v] = 0
	}
	nDevs, nVendors := 0, 0
	for p, key := range c.orderedKeys {
		info := c.Fingerprint(key)
		ix.infos[p] = info
		nDevs += len(info.Devices)
		nVendors += len(info.Vendors)
		for _, v := range info.Vendors {
			named[v] = 0
		}
	}
	ix.vendors = make([]string, 0, len(named))
	for v := range named {
		ix.vendors = append(ix.vendors, v)
	}
	sort.Strings(ix.vendors)
	// Bucket the device IDs by vendor, then sort each bucket: the same
	// ID order within a vendor as one sort of every ID, for fewer
	// comparisons.
	ix.deviceVendor = make([]bool, len(ix.vendors))
	ix.vendorRows = make([]int32, len(ix.vendors)+1)
	for i, v := range ix.vendors {
		named[v] = int32(i)
		n, ok := devices[v]
		ix.deviceVendor[i] = ok
		ix.vendorRows[i+1] = ix.vendorRows[i] + n
	}
	ids := make([]string, c.devices.len())
	next := slices.Clone(ix.vendorRows[:len(ix.vendors)])
	c.devices.each(func(id string, d deviceIdentity) {
		v := named[d.vendor]
		ids[next[v]] = id
		next[v]++
	})
	ix.devVendor = make([]int32, len(ids))
	ix.devRow = make(map[string]int32, len(ids))
	for v := range ix.vendors {
		lo, hi := ix.vendorRows[v], ix.vendorRows[v+1]
		slices.Sort(ids[lo:hi])
		for r := lo; r < hi; r++ {
			ix.devVendor[r] = int32(v)
			ix.devRow[ids[r]] = r
		}
	}

	// Each print's rows and vendor indices are carved out of one backing
	// array each.
	ix.printDevs = make([][]int32, len(ix.infos))
	ix.printVendors = make([][]int32, len(ix.infos))
	devBacking := make([]int32, 0, nDevs)
	vendorBacking := make([]int32, 0, nVendors)
	for p, info := range ix.infos {
		lo := len(devBacking)
		for _, dev := range info.Devices {
			devBacking = append(devBacking, ix.row(dev))
		}
		ix.printDevs[p] = devBacking[lo:len(devBacking):len(devBacking)]
		lo = len(vendorBacking)
		for _, v := range info.Vendors {
			vendorBacking = append(vendorBacking, named[v])
		}
		ix.printVendors[p] = vendorBacking[lo:len(vendorBacking):len(vendorBacking)]
	}
	ix.groupLists()
	return ix
}

// row returns a device's row. Every device a print or an SNI names has
// a vendor entry, since NewClientObserved and MergeDelta set one for
// each record's device, so a miss is a bug.
func (ix *tableIndex) row(dev string) int32 {
	r, ok := ix.devRow[dev]
	if !ok {
		panic(fmt.Sprintf("analysis: device %q has prints but no vendor entry", dev))
	}
	return r
}

// groupLists groups the prints by ciphersuite list. A device that
// reaches one list through several prints (same suites, other
// extensions or version) is still one tuple, so a list counts the
// distinct devices of its prints.
func (ix *tableIndex) groupLists() {
	byKey := map[string]int32{}
	// first[l] and next[p] chain the prints of list l in print order.
	var first []int32
	next := make([]int32, len(ix.infos))
	last := []int32(nil)
	var key []byte
	for p, info := range ix.infos {
		key = key[:0]
		for _, cs := range info.Print.CipherSuites {
			key = append(key, byte(cs>>8), byte(cs))
		}
		l, ok := byKey[string(key)]
		if !ok {
			l = int32(len(ix.lists))
			byKey[string(key)] = l
			ix.lists = append(ix.lists, suiteList{suites: info.Print.CipherSuites})
			first = append(first, int32(p))
			last = append(last, int32(p))
		} else {
			next[last[l]] = int32(p)
			last[l] = int32(p)
		}
		next[p] = -1
	}
	// seen[r] is 1 + the last list that counted device r, and perVendor
	// tallies the current list's devices by vendor.
	seen := make([]int32, len(ix.devVendor))
	perVendor := make([]int, len(ix.vendors))
	var touched []int32
	for l := range ix.lists {
		mark := int32(l) + 1
		touched = touched[:0]
		for p := first[l]; p >= 0; p = next[p] {
			for _, r := range ix.printDevs[p] {
				if seen[r] == mark {
					continue
				}
				seen[r] = mark
				ix.lists[l].devices++
				v := ix.devVendor[r]
				if perVendor[v] == 0 {
					touched = append(touched, v)
				}
				perVendor[v]++
			}
		}
		slices.Sort(touched)
		vendors := make([]vendorCount, len(touched))
		for i, v := range touched {
			vendors[i] = vendorCount{v, perVendor[v]}
			perVendor[v] = 0
		}
		ix.lists[l].vendors = vendors
	}
}

// vendorPrints returns, for each vendor, the indices of the prints
// whose vendor set names it, ascending: the vendor's side of the
// Figure 1 graph.
func (ix *tableIndex) vendorPrints() [][]int32 {
	counts := make([]int, len(ix.vendors))
	total := 0
	for _, vs := range ix.printVendors {
		for _, v := range vs {
			counts[v]++
		}
		total += len(vs)
	}
	backing := make([]int32, total)
	out := make([][]int32, len(ix.vendors))
	off := 0
	for v, n := range counts {
		out[v] = backing[off : off : off+n]
		off += n
	}
	for p, vs := range ix.printVendors {
		for _, v := range vs {
			out[v] = append(out[v], int32(p))
		}
	}
	return out
}

// deviceDoCs returns the DoC of every device row, and whether the
// device has a print at all: the fraction of the device's prints that
// no other device of its vendor uses.
func (ix *tableIndex) deviceDoCs() (doc []float64, printed []bool) {
	deg := make([]int, len(ix.devVendor))
	solely := make([]int, len(ix.devVendor))
	users := make([]int, len(ix.vendors))
	for _, rows := range ix.printDevs {
		for _, r := range rows {
			deg[r]++
			users[ix.devVendor[r]]++
		}
		for _, r := range rows {
			if users[ix.devVendor[r]] == 1 {
				solely[r]++
			}
		}
		for _, r := range rows {
			users[ix.devVendor[r]] = 0
		}
	}
	doc = make([]float64, len(deg))
	printed = make([]bool, len(deg))
	for r, n := range deg {
		if n > 0 {
			doc[r] = float64(solely[r]) / float64(n)
			printed[r] = true
		}
	}
	return doc, printed
}
