// Package intern provides the shared, append-only identity stores
// backing the columnar hot path: a string Table mapping each distinct
// string to a stable uint32 Symbol, and a uint16-slice Arena mapping
// each distinct ciphersuite/extension list to a deduped Handle over
// one contiguous backing array.
//
// Both stores are append-only — symbols and handles, once issued,
// never change meaning and never move — so readers may hold a Symbol,
// a Handle, or a slice view returned by Arena.Get across later
// inserts without synchronization. Writes take a mutex; reads take an
// RLock fast path that almost always hits once the working set is
// warm.
//
// Symbol 0 is always the empty string and Handle 0 is always the
// empty list, so "has SNI" and "no extensions" checks stay branch-only.
//
// An overlay stages inserts over a base store without writing to it:
// it resolves what the base knows to the base's symbols and handles,
// and issues its own, tagged with overlayBit, for the rest. A resident
// service ingests each batch through overlays of its long-lived
// stores, so a batch it rejects leaves them as they were.
package intern

import "sync"

// overlayBit tags the symbols and handles an overlay issues itself, so
// they never collide with its base's.
const overlayBit = 1 << 31

// Symbol identifies one distinct string in a Table. The zero Symbol is
// always the empty string.
type Symbol uint32

// Table is an append-only string interner. The zero value is not
// usable; construct with NewTable or Overlay.
type Table struct {
	mu   sync.RWMutex
	syms map[string]Symbol
	strs []string
	// base is the table an overlay stages over; nil for a plain table.
	base *Table
}

// NewTable returns a Table with Symbol 0 pre-bound to "".
func NewTable() *Table {
	return &Table{
		syms: map[string]Symbol{"": 0},
		strs: []string{""},
	}
}

// Overlay returns an empty table staged over t. It resolves every
// string t knows to t's Symbol and gives any other string a Symbol of
// its own, without writing to t; Commit copies those strings into t.
// A string keeps the Symbol it first resolved to for the overlay's
// whole life, even if t learns it later, as long as one goroutine at a
// time uses the overlay.
func (t *Table) Overlay() *Table { return &Table{base: t} }

// Intern returns the stable Symbol for s, assigning the next Symbol on
// first sight. Safe for concurrent use.
func (t *Table) Intern(s string) Symbol {
	if sym, ok := t.Lookup(s); ok {
		return sym
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sym, ok := t.syms[s]; ok {
		return sym
	}
	if t.syms == nil {
		t.syms = map[string]Symbol{}
	}
	sym := Symbol(len(t.strs))
	if t.base != nil {
		sym |= overlayBit
	}
	t.strs = append(t.strs, s)
	t.syms[s] = sym
	return sym
}

// Lookup returns the Symbol for s without inserting. ok is false if s
// has never been interned. An overlay looks in its own strings first,
// then in its base.
func (t *Table) Lookup(s string) (sym Symbol, ok bool) {
	t.mu.RLock()
	sym, ok = t.syms[s]
	t.mu.RUnlock()
	if !ok && t.base != nil {
		return t.base.Lookup(s)
	}
	return sym, ok
}

// Str returns the string bound to sym. Panics if sym was never issued
// by this table (or, for an overlay, by its base).
func (t *Table) Str(sym Symbol) string {
	if sym&overlayBit == 0 && t.base != nil {
		return t.base.Str(sym)
	}
	t.mu.RLock()
	s := t.strs[sym&^overlayBit]
	t.mu.RUnlock()
	return s
}

// Len returns the number of distinct strings the table holds itself:
// every Symbol a plain table issued, the empty string included, or the
// strings an overlay stages.
func (t *Table) Len() int {
	t.mu.RLock()
	n := len(t.strs)
	t.mu.RUnlock()
	return n
}

// Commit interns every string the overlay stages into its base. The
// overlay's own symbols stay valid.
func (t *Table) Commit() {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, s := range t.strs {
		t.base.Intern(s)
	}
}

// Handle identifies one distinct uint16 list in an Arena. The zero
// Handle is always the empty list.
type Handle uint32

type span struct {
	off uint32
	n   uint32
}

// Arena is an append-only, content-deduplicating store of uint16
// lists. Lists with identical contents (same values, same order) share
// one Handle and one span of the backing array. The zero value is not
// usable; construct with NewArena or Overlay.
type Arena struct {
	mu    sync.RWMutex
	idx   map[string]Handle
	spans []span
	data  []uint16
	// base is the arena an overlay stages over; nil for a plain arena.
	base *Arena
}

// NewArena returns an Arena with Handle 0 pre-bound to the empty list.
func NewArena() *Arena {
	return &Arena{
		idx:   map[string]Handle{"": 0},
		spans: []span{{0, 0}},
	}
}

// Overlay returns an empty arena staged over a, the counterpart of
// Table.Overlay: lists a holds resolve to a's handles, any other list
// gets a handle of the overlay's own, and a is never written. A list
// keeps its first Handle for the overlay's whole life as long as one
// goroutine at a time uses the overlay. Putting a staged list into a
// later gives it a new Handle there.
func (a *Arena) Overlay() *Arena { return &Arena{base: a} }

// arenaKey encodes vals big-endian into buf (growing it only when vals
// is longer than the caller's stack buffer) and returns the byte key.
func arenaKey(buf []byte, vals []uint16) []byte {
	if cap(buf) < 2*len(vals) {
		buf = make([]byte, 2*len(vals))
	}
	buf = buf[:2*len(vals)]
	for i, v := range vals {
		buf[2*i] = byte(v >> 8)
		buf[2*i+1] = byte(v)
	}
	return buf
}

// Put returns the Handle for the exact list vals, storing a copy on
// first sight. The fast path (list already present) allocates nothing:
// the key is encoded into a stack buffer and the map lookup uses the
// compiler's string(key) no-alloc form. Safe for concurrent use.
func (a *Arena) Put(vals []uint16) Handle {
	var arr [128]byte
	key := arenaKey(arr[:0], vals)
	if h, ok := a.lookup(key); ok {
		return h
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if h, ok := a.idx[string(key)]; ok {
		return h
	}
	if a.idx == nil {
		a.idx = map[string]Handle{}
	}
	h := Handle(len(a.spans))
	if a.base != nil {
		h |= overlayBit
	}
	off := uint32(len(a.data))
	a.data = append(a.data, vals...)
	a.spans = append(a.spans, span{off, uint32(len(vals))})
	a.idx[string(key)] = h
	return h
}

// lookup returns the Handle of the list encoded as key, looking in an
// overlay's own lists before its base's.
func (a *Arena) lookup(key []byte) (Handle, bool) {
	a.mu.RLock()
	h, ok := a.idx[string(key)]
	a.mu.RUnlock()
	if !ok && a.base != nil {
		return a.base.lookup(key)
	}
	return h, ok
}

// Get returns the list bound to h as a read-only view into the backing
// array. The view stays valid across later Puts (the array is
// append-only: growth copies never mutate the old prefix, and live
// views keep their old backing alive). Callers must not modify it.
// Panics if h was never issued by this arena (or, for an overlay, by
// its base).
func (a *Arena) Get(h Handle) []uint16 {
	if h&overlayBit == 0 && a.base != nil {
		return a.base.Get(h)
	}
	a.mu.RLock()
	sp := a.spans[h&^overlayBit]
	v := a.data[sp.off : sp.off+sp.n : sp.off+sp.n]
	a.mu.RUnlock()
	return v
}

// Len returns the number of distinct lists the arena holds itself:
// every Handle a plain arena issued, the empty list included, or the
// lists an overlay stages.
func (a *Arena) Len() int {
	a.mu.RLock()
	n := len(a.spans)
	a.mu.RUnlock()
	return n
}
