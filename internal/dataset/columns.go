package dataset

import (
	"slices"
	"sort"
	"time"

	"repro/internal/intern"
)

// Columns is the interned, columnar storage behind Dataset.Records:
// one parallel slice per field, identity strings replaced by stable
// intern.Symbols from one shared table, and every record's wire bytes
// packed into a few large chunks addressed by (offset, length) spans.
// A million records cost a dozen slice headers instead of a million
// Record structs, and equality checks on identities become integer
// compares.
//
// Columns is append-only from the caller's perspective; the row-shaped
// Record remains the compatibility view and is materialized on demand
// (interned strings and raw-span subslices are shared, so a view row
// costs no copying). Consumers must treat Raw views as read-only.
type columns struct {
	tab    *intern.Table
	device []intern.Symbol
	vendor []intern.Symbol
	model  []intern.Symbol
	typ    []intern.Symbol
	user   []intern.Symbol
	sni    []intern.Symbol
	stack  []intern.Symbol
	timeNS []int64
	rawOff []uint32
	rawLen []uint32
	// raw holds the wire bytes in chunks that are never reallocated.
	// Each record is written whole into the last chunk, or into a fresh
	// one when it does not fit, so growth copies nothing; one contiguous
	// buffer grown by append copied itself on every growth and left
	// several times its final size as garbage. Chunks double from
	// minRawChunk up to rawChunkSize, so a small batch stays small. A
	// record's rawOff holds its chunk index above rawChunkBits and its
	// offset inside the chunk below them.
	raw [][]byte
}

// Raw-byte chunk sizes: at most one record's length is wasted at the
// end of each chunk.
const (
	minRawChunk  = 4 << 10
	rawChunkBits = 20
	rawChunkSize = 1 << rawChunkBits
)

func newColumns() *columns {
	return &columns{tab: intern.NewTable()}
}

// rawAppend reserves n bytes of wire bytes for one record and returns
// the record's rawOff with the reserved bytes for the caller to fill.
// A record longer than a chunk gets a chunk of its own length.
func (c *columns) rawAppend(n int) (uint32, []byte) {
	k := len(c.raw) - 1
	if k < 0 || cap(c.raw[k])-len(c.raw[k]) < n {
		size := minRawChunk
		if k >= 0 {
			size = min(2*cap(c.raw[k]), rawChunkSize)
		}
		k = len(c.raw)
		if k >= 1<<(32-rawChunkBits) {
			panic("dataset: too many raw wire-byte chunks")
		}
		c.raw = append(c.raw, make([]byte, 0, max(n, size)))
	}
	start := len(c.raw[k])
	c.raw[k] = c.raw[k][:start+n]
	return uint32(k<<rawChunkBits | start), c.raw[k][start : start+n : start+n]
}

// rawSpan resolves a record's (rawOff, rawLen) span to a
// capacity-clamped view of its wire bytes.
func (c *columns) rawSpan(off, n uint32) []byte {
	chunk, start := c.raw[off>>rawChunkBits], off&(rawChunkSize-1)
	return chunk[start : start+n : start+n]
}

// appendSyms appends one record given already-interned symbols and an
// already-written raw span.
func (c *columns) appendSyms(dev, ven, mod, typ, user, sni, stack intern.Symbol, timeNS int64, off, n uint32) {
	c.device = append(c.device, dev)
	c.vendor = append(c.vendor, ven)
	c.model = append(c.model, mod)
	c.typ = append(c.typ, typ)
	c.user = append(c.user, user)
	c.sni = append(c.sni, sni)
	c.stack = append(c.stack, stack)
	c.timeNS = append(c.timeNS, timeNS)
	c.rawOff = append(c.rawOff, off)
	c.rawLen = append(c.rawLen, n)
}

// appendRow interns one row-shaped Record and copies its wire bytes
// into the shared buffer.
func (c *columns) appendRow(r Record) {
	off, buf := c.rawAppend(len(r.Raw))
	copy(buf, r.Raw)
	c.appendSyms(
		c.tab.Intern(r.DeviceID),
		c.tab.Intern(r.Vendor),
		c.tab.Intern(r.Model),
		c.tab.Intern(r.Type),
		c.tab.Intern(r.User),
		c.tab.Intern(r.SNI),
		c.tab.Intern(r.StackID),
		r.Time.UnixNano(),
		off, uint32(len(r.Raw)),
	)
}

func (c *columns) len() int { return len(c.timeNS) }

// reserve grows every column's capacity to hold n more records.
func (c *columns) reserve(n int) {
	c.device = slices.Grow(c.device, n)
	c.vendor = slices.Grow(c.vendor, n)
	c.model = slices.Grow(c.model, n)
	c.typ = slices.Grow(c.typ, n)
	c.user = slices.Grow(c.user, n)
	c.sni = slices.Grow(c.sni, n)
	c.stack = slices.Grow(c.stack, n)
	c.timeNS = slices.Grow(c.timeNS, n)
	c.rawOff = slices.Grow(c.rawOff, n)
	c.rawLen = slices.Grow(c.rawLen, n)
}

// swap exchanges two records across every column. Raw spans are
// addressed (offset, length) per record — independent arrays, not
// prefix-encoded — precisely so records stay swappable after the
// buffer is laid down in generation order.
func (c *columns) swap(i, j int) {
	c.device[i], c.device[j] = c.device[j], c.device[i]
	c.vendor[i], c.vendor[j] = c.vendor[j], c.vendor[i]
	c.model[i], c.model[j] = c.model[j], c.model[i]
	c.typ[i], c.typ[j] = c.typ[j], c.typ[i]
	c.user[i], c.user[j] = c.user[j], c.user[i]
	c.sni[i], c.sni[j] = c.sni[j], c.sni[i]
	c.stack[i], c.stack[j] = c.stack[j], c.stack[i]
	c.timeNS[i], c.timeNS[j] = c.timeNS[j], c.timeNS[i]
	c.rawOff[i], c.rawOff[j] = c.rawOff[j], c.rawOff[i]
	c.rawLen[i], c.rawLen[j] = c.rawLen[j], c.rawLen[i]
}

// byTime sorts the columns by observation time, mirroring the order the
// row-based generator produced (sort.Sort and sort.Slice share one
// sorting algorithm, so the permutation — and therefore the report
// bytes — is unchanged for identical key comparisons).
type byTime struct{ c *columns }

func (s byTime) Len() int           { return s.c.len() }
func (s byTime) Less(i, j int) bool { return s.c.timeNS[i] < s.c.timeNS[j] }
func (s byTime) Swap(i, j int)      { s.c.swap(i, j) }

// Records is a read-only view over a contiguous range of columnar
// records. The zero value is an empty view. Copying a Records copies
// three words; Slice re-slices without touching the data.
type Records struct {
	c      *columns
	lo, hi int
}

// RecordsFromRows builds a standalone columnar store from row-shaped
// records (the service's batch-decode path), interning identities into
// tab and packing wire bytes into chunks. tab may be an overlay: a
// resident service interns each batch through an overlay of one
// daemon-lifetime table, so a batch stages only the strings no earlier
// accepted batch carried.
func RecordsFromRows(tab *intern.Table, rows []Record) Records {
	c := &columns{tab: tab}
	c.reserve(len(rows))
	for _, r := range rows {
		c.appendRow(r)
	}
	return Records{c: c, hi: c.len()}
}

// Len returns the number of records in the view.
func (rs Records) Len() int { return rs.hi - rs.lo }

// Slice returns the subview [lo, hi) relative to rs.
func (rs Records) Slice(lo, hi int) Records {
	if lo < 0 || hi < lo || rs.lo+hi > rs.hi {
		panic("dataset: Records.Slice out of range")
	}
	return Records{c: rs.c, lo: rs.lo + lo, hi: rs.lo + hi}
}

// Table exposes the intern table the view's symbols resolve against.
func (rs Records) Table() *intern.Table { return rs.c.tab }

// At materializes record i as a row-shaped Record. Identity strings
// are the interned instances and Raw is a capacity-clamped view into
// the shared chunk — materializing is cheap, but callers must not
// modify Raw in place.
func (rs Records) At(i int) Record {
	c := rs.c
	j := rs.lo + i
	return Record{
		DeviceID: c.tab.Str(c.device[j]),
		Vendor:   c.tab.Str(c.vendor[j]),
		Model:    c.tab.Str(c.model[j]),
		Type:     c.tab.Str(c.typ[j]),
		User:     c.tab.Str(c.user[j]),
		Time:     time.Unix(0, c.timeNS[j]).UTC(),
		SNI:      c.tab.Str(c.sni[j]),
		StackID:  c.tab.Str(c.stack[j]),
		Raw:      c.rawSpan(c.rawOff[j], c.rawLen[j]),
	}
}

// Rows materializes the whole view as row-shaped Records, for cold
// paths that want plain range loops. Hot paths should use the column
// accessors instead.
func (rs Records) Rows() []Record {
	if rs.Len() == 0 {
		return nil
	}
	out := make([]Record, rs.Len())
	for i := range out {
		out[i] = rs.At(i)
	}
	return out
}

// Column accessors: per-field reads without materializing a row.

// DeviceSym returns record i's device-ID symbol.
func (rs Records) DeviceSym(i int) intern.Symbol { return rs.c.device[rs.lo+i] }

// VendorSym returns record i's vendor symbol.
func (rs Records) VendorSym(i int) intern.Symbol { return rs.c.vendor[rs.lo+i] }

// TypeSym returns record i's device-type symbol.
func (rs Records) TypeSym(i int) intern.Symbol { return rs.c.typ[rs.lo+i] }

// UserSym returns record i's user symbol.
func (rs Records) UserSym(i int) intern.Symbol { return rs.c.user[rs.lo+i] }

// SNISym returns record i's SNI symbol; 0 means the record carried no
// SNI (Symbol 0 is always the empty string).
func (rs Records) SNISym(i int) intern.Symbol { return rs.c.sni[rs.lo+i] }

// StackSym returns record i's stack-ID symbol.
func (rs Records) StackSym(i int) intern.Symbol { return rs.c.stack[rs.lo+i] }

// TimeNS returns record i's observation time in Unix nanoseconds.
func (rs Records) TimeNS(i int) int64 { return rs.c.timeNS[rs.lo+i] }

// Raw returns a read-only view of record i's wire bytes.
func (rs Records) Raw(i int) []byte {
	c := rs.c
	return c.rawSpan(c.rawOff[rs.lo+i], c.rawLen[rs.lo+i])
}

// SNIs returns the distinct SNIs observed, sorted.
func (ds *Dataset) SNIs() []string {
	seen := map[intern.Symbol]bool{}
	tab := ds.Records.Table()
	var out []string
	for i := 0; i < ds.Records.Len(); i++ {
		if sym := ds.Records.SNISym(i); sym != 0 && !seen[sym] {
			seen[sym] = true
			out = append(out, tab.Str(sym))
		}
	}
	sort.Strings(out)
	return out
}

// SNIsByMinUsers returns SNIs observed from at least minUsers distinct
// users (the paper filtered SNIs seen from <= 2 users).
func (ds *Dataset) SNIsByMinUsers(minUsers int) []string {
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
	tab := ds.Records.Table()
	var out []string
	for sym, n := range count {
		if n >= minUsers {
			out = append(out, tab.Str(sym))
		}
	}
	sort.Strings(out)
	return out
}
