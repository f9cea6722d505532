// Package intern provides the shared, append-only string Table backing
// the columnar hot path: it maps each distinct string to a stable
// uint32 Symbol.
//
// The table is append-only — a symbol, once issued, never changes
// meaning — so readers may hold a Symbol across later inserts without
// synchronization. Writes take a mutex; reads take an RLock fast path
// that almost always hits once the working set is warm.
//
// Symbol 0 is always the empty string, so "has SNI" checks stay
// branch-only.
package intern

import "sync"

// Symbol identifies one distinct string in a Table. The zero Symbol is
// always the empty string.
type Symbol uint32

// Table is an append-only string interner. The zero value is not
// usable; construct with NewTable.
type Table struct {
	mu   sync.RWMutex
	syms map[string]Symbol
	strs []string
}

// NewTable returns a Table with Symbol 0 pre-bound to "".
func NewTable() *Table {
	return &Table{
		syms: map[string]Symbol{"": 0},
		strs: []string{""},
	}
}

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
	sym := Symbol(len(t.strs))
	t.strs = append(t.strs, s)
	t.syms[s] = sym
	return sym
}

// Lookup returns the Symbol for s without inserting. ok is false if s
// has never been interned.
func (t *Table) Lookup(s string) (sym Symbol, ok bool) {
	t.mu.RLock()
	sym, ok = t.syms[s]
	t.mu.RUnlock()
	return sym, ok
}

// Str returns the string bound to sym. Panics if sym was never issued
// by this table.
func (t *Table) Str(sym Symbol) string {
	t.mu.RLock()
	s := t.strs[sym]
	t.mu.RUnlock()
	return s
}

// Len returns the number of distinct strings the table holds, the
// empty string included.
func (t *Table) Len() int {
	t.mu.RLock()
	n := len(t.strs)
	t.mu.RUnlock()
	return n
}
