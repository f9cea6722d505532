package dataset

import "repro/internal/intern"

// Log is an append-only columnar record store over a shared intern
// table: a resident service's accepted-record log. Appending a view
// copies its symbol columns and its wire bytes, so the view's own store
// can be dropped; the bytes go into chunks that are never reallocated,
// as in every columnar store. A kept record costs its symbols, time and
// span (44 bytes) plus its wire bytes, where a row costs seven string
// headers, a time and a slice header on top of separately allocated
// strings and bytes. A Log is not safe for concurrent use.
type Log struct {
	c columns
}

// NewLog returns an empty log whose records resolve against tab.
func NewLog(tab *intern.Table) *Log {
	return &Log{c: columns{tab: tab}}
}

// Append appends every record of rs, in order. rs must resolve against
// the log's table: a symbol means nothing in another table, so a view
// from any other table panics.
func (l *Log) Append(rs Records) {
	if rs.c == nil {
		return // the zero view is empty
	}
	if rs.c.tab != l.c.tab {
		panic("dataset: Log.Append: records from another intern table")
	}
	c, src, lo, hi := &l.c, rs.c, rs.lo, rs.hi
	c.device = append(c.device, src.device[lo:hi]...)
	c.vendor = append(c.vendor, src.vendor[lo:hi]...)
	c.model = append(c.model, src.model[lo:hi]...)
	c.typ = append(c.typ, src.typ[lo:hi]...)
	c.user = append(c.user, src.user[lo:hi]...)
	c.sni = append(c.sni, src.sni[lo:hi]...)
	c.stack = append(c.stack, src.stack[lo:hi]...)
	c.timeNS = append(c.timeNS, src.timeNS[lo:hi]...)
	for i := lo; i < hi; i++ {
		n := src.rawLen[i]
		off, buf := c.rawAppend(int(n))
		copy(buf, src.rawSpan(src.rawOff[i], n))
		c.rawOff = append(c.rawOff, off)
		c.rawLen = append(c.rawLen, n)
	}
}

// Len returns the number of records appended.
func (l *Log) Len() int { return l.c.len() }

// Records returns a view of every record appended so far. The view
// holds its own copy of the column headers, and appending writes only
// past them, so later appends neither change the view nor race with its
// readers.
func (l *Log) Records() Records {
	c := l.c
	return Records{c: &c, hi: c.len()}
}

// Bytes returns the memory the log holds: the capacity of its columns
// plus that of its wire-byte chunks.
func (l *Log) Bytes() int64 {
	c := &l.c
	syms := cap(c.device) + cap(c.vendor) + cap(c.model) + cap(c.typ) + cap(c.user) + cap(c.sni) + cap(c.stack)
	n := int64(4*syms + 8*cap(c.timeNS) + 4*(cap(c.rawOff)+cap(c.rawLen)))
	for _, chunk := range c.raw {
		n += int64(cap(chunk))
	}
	return n
}
