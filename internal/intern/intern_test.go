package intern

import (
	"fmt"
	"sync"
	"testing"
)

// TestTableZeroSymbol pins the invariant the columnar layout leans on:
// Symbol 0 is the empty string, so sniSym != 0 means "has SNI".
func TestTableZeroSymbol(t *testing.T) {
	tab := NewTable()
	if got := tab.Intern(""); got != 0 {
		t.Fatalf("Intern(\"\") = %d, want 0", got)
	}
	if got := tab.Str(0); got != "" {
		t.Fatalf("Str(0) = %q, want \"\"", got)
	}
	if got := tab.Intern("a"); got == 0 {
		t.Fatalf("Intern(\"a\") = 0, want nonzero")
	}
}

// TestTableStability asserts symbols are stable: re-interning returns
// the same symbol, and Str round-trips every issued symbol.
func TestTableStability(t *testing.T) {
	tab := NewTable()
	words := []string{"boa", "", "tuya", "boa", "mbedtls", "tuya", "openssl"}
	first := map[string]Symbol{}
	for _, w := range words {
		sym := tab.Intern(w)
		if prev, ok := first[w]; ok && prev != sym {
			t.Fatalf("Intern(%q) unstable: %d then %d", w, prev, sym)
		}
		first[w] = sym
		if got := tab.Str(sym); got != w {
			t.Fatalf("Str(Intern(%q)) = %q", w, got)
		}
	}
	if got, want := tab.Len(), 5; got != want { // "", boa, tuya, mbedtls, openssl
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	if _, ok := tab.Lookup("never-seen"); ok {
		t.Fatalf("Lookup of uninterned string reported ok")
	}
	if sym, ok := tab.Lookup("boa"); !ok || sym != first["boa"] {
		t.Fatalf("Lookup(boa) = %d,%v want %d,true", sym, ok, first["boa"])
	}
}

// TestTableConcurrentInterning hammers one table from many goroutines
// interning overlapping string sets and asserts, under -race, that
// every goroutine observes the same symbol for the same string.
func TestTableConcurrentInterning(t *testing.T) {
	tab := NewTable()
	const goroutines = 8
	const distinct = 200
	results := make([]map[string]Symbol, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make(map[string]Symbol, distinct)
			// Each goroutine walks the shared key space from a
			// different offset so insertions race from all sides.
			for i := 0; i < distinct*3; i++ {
				s := fmt.Sprintf("stack-%d", (i*7+g*13)%distinct)
				sym := tab.Intern(s)
				if prev, ok := seen[s]; ok && prev != sym {
					t.Errorf("goroutine %d: Intern(%q) unstable: %d then %d", g, s, prev, sym)
					return
				}
				seen[s] = sym
				if got := tab.Str(sym); got != s {
					t.Errorf("goroutine %d: Str(%d) = %q, want %q", g, sym, got, s)
					return
				}
			}
			results[g] = seen
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for s, sym := range results[0] {
			if other, ok := results[g][s]; ok && other != sym {
				t.Fatalf("goroutines 0 and %d disagree on %q: %d vs %d", g, s, sym, other)
			}
		}
	}
	if got, want := tab.Len(), distinct+1; got != want {
		t.Fatalf("Len() = %d, want %d (+1 for empty string)", got, want)
	}
}

// TestArenaDedup asserts the arena's core contract: identical lists
// share a Handle, distinct lists (including order variants) do not,
// and Get round-trips contents exactly.
func TestArenaDedup(t *testing.T) {
	a := NewArena()
	if got := a.Put(nil); got != 0 {
		t.Fatalf("Put(nil) = %d, want 0", got)
	}
	if got := a.Put([]uint16{}); got != 0 {
		t.Fatalf("Put(empty) = %d, want 0", got)
	}
	lists := [][]uint16{
		{0x1301, 0x1302, 0x1303},
		{0xc02f, 0xc030},
		{0x1301, 0x1302, 0x1303}, // dup of [0]
		{0x1302, 0x1301, 0x1303}, // order variant: distinct
		{0xc02f},                 // prefix of [1]: distinct
	}
	handles := make([]Handle, len(lists))
	for i, l := range lists {
		handles[i] = a.Put(l)
	}
	if handles[0] != handles[2] {
		t.Fatalf("identical lists got distinct handles %d, %d", handles[0], handles[2])
	}
	if handles[0] == handles[3] {
		t.Fatalf("order variant shares handle %d", handles[0])
	}
	if handles[1] == handles[4] {
		t.Fatalf("prefix shares handle %d", handles[1])
	}
	for i, l := range lists {
		got := a.Get(handles[i])
		if len(got) != len(l) {
			t.Fatalf("Get(%d) len = %d, want %d", handles[i], len(got), len(l))
		}
		for j := range l {
			if got[j] != l[j] {
				t.Fatalf("Get(%d)[%d] = %#x, want %#x", handles[i], j, got[j], l[j])
			}
		}
	}
	if got, want := a.Len(), 5; got != want { // empty + 4 distinct
		t.Fatalf("Len() = %d, want %d", got, want)
	}
}

// TestArenaViewStableAcrossGrowth asserts a Get view taken early keeps
// its contents after enough later Puts to force backing-array growth.
func TestArenaViewStableAcrossGrowth(t *testing.T) {
	a := NewArena()
	early := a.Put([]uint16{1, 2, 3})
	view := a.Get(early)
	for i := 0; i < 4096; i++ {
		a.Put([]uint16{uint16(i), uint16(i + 1), uint16(i + 2), uint16(i + 3)})
	}
	if len(view) != 3 || view[0] != 1 || view[1] != 2 || view[2] != 3 {
		t.Fatalf("early view corrupted after growth: %v", view)
	}
	// The view must also be capacity-clamped so appends cannot stomp
	// neighbouring spans.
	if cap(view) != len(view) {
		t.Fatalf("view cap %d != len %d; appends could clobber the arena", cap(view), len(view))
	}
}

// TestArenaConcurrentPut races Puts of overlapping lists and asserts
// handle agreement (run with -race).
func TestArenaConcurrentPut(t *testing.T) {
	a := NewArena()
	const goroutines = 8
	const distinct = 100
	results := make([][]Handle, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			hs := make([]Handle, distinct)
			for i := 0; i < distinct; i++ {
				k := (i*11 + g*17) % distinct
				hs[k] = a.Put([]uint16{uint16(k), uint16(k * 2), uint16(k * 3)})
			}
			results[g] = hs
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for k := 0; k < distinct; k++ {
			if results[g][k] != results[0][k] {
				t.Fatalf("goroutines 0 and %d disagree on list %d: %d vs %d",
					g, k, results[0][k], results[g][k])
			}
		}
	}
}

// TestTableOverlay pins the overlay contract a rejected batch relies
// on: strings the base knows resolve to the base's symbols, new ones
// are staged without touching the base, a staged string keeps its
// symbol after the base learns it elsewhere, and Commit adds the staged
// strings to the base.
func TestTableOverlay(t *testing.T) {
	base := NewTable()
	known := base.Intern("known")
	o := base.Overlay()
	if got := o.Intern("known"); got != known {
		t.Fatalf("overlay Intern(known) = %d, want the base's %d", got, known)
	}
	if got := o.Intern(""); got != 0 {
		t.Fatalf("overlay Intern(\"\") = %d, want 0", got)
	}
	staged := o.Intern("staged")
	if again := o.Intern("staged"); again != staged {
		t.Fatalf("overlay Intern(staged) unstable: %d then %d", staged, again)
	}
	if _, ok := base.Lookup("staged"); ok || base.Len() != 2 {
		t.Fatalf("staging wrote to the base: Len %d", base.Len())
	}
	if o.Str(staged) != "staged" || o.Str(known) != "known" {
		t.Fatalf("overlay Str does not round-trip: %q, %q", o.Str(staged), o.Str(known))
	}
	// The base learns the string from elsewhere; the overlay keeps the
	// symbol it gave first.
	base.Intern("staged")
	if got := o.Intern("staged"); got != staged {
		t.Fatalf("overlay symbol changed from %d to %d after the base learned the string", staged, got)
	}
	late := o.Intern("late")
	if o.Len() != 2 {
		t.Fatalf("overlay Len() = %d, want 2 staged strings", o.Len())
	}
	o.Commit()
	if sym, ok := base.Lookup("late"); !ok || base.Str(sym) != "late" {
		t.Fatalf("Commit did not add the staged string to the base")
	}
	if base.Len() != 4 || o.Str(late) != "late" {
		t.Fatalf("after Commit: base Len %d, overlay Str %q", base.Len(), o.Str(late))
	}
}

// TestArenaOverlay is TestTableOverlay's counterpart for lists, which
// are committed by putting them into the base.
func TestArenaOverlay(t *testing.T) {
	base := NewArena()
	known := base.Put([]uint16{1, 2})
	o := base.Overlay()
	if got := o.Put([]uint16{1, 2}); got != known {
		t.Fatalf("overlay Put(known) = %d, want the base's %d", got, known)
	}
	if got := o.Put(nil); got != 0 {
		t.Fatalf("overlay Put(nil) = %d, want 0", got)
	}
	staged := o.Put([]uint16{3, 4, 5})
	if base.Len() != 2 {
		t.Fatalf("staging wrote to the base: Len %d", base.Len())
	}
	if got := o.Get(staged); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("overlay Get(staged) = %v", got)
	}
	if got := o.Get(known); len(got) != 2 || got[1] != 2 {
		t.Fatalf("overlay Get(known) = %v", got)
	}
	committed := base.Put([]uint16{3, 4, 5})
	if got := o.Put([]uint16{3, 4, 5}); got != staged {
		t.Fatalf("overlay handle changed from %d to %d after the base learned the list", staged, got)
	}
	if committed == staged || base.Len() != 3 || o.Len() != 1 {
		t.Fatalf("base handle %d, staged %d, base Len %d, overlay Len %d", committed, staged, base.Len(), o.Len())
	}
}

// BenchmarkArenaPutHit measures the warm-path Put, which must stay
// allocation-free for the fingerprint hot loop.
func BenchmarkArenaPutHit(b *testing.B) {
	a := NewArena()
	list := []uint16{0x1301, 0x1302, 0x1303, 0xc02f, 0xc030, 0xcca9}
	a.Put(list)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Put(list)
	}
}

// BenchmarkTableInternHit measures the warm-path Intern.
func BenchmarkTableInternHit(b *testing.B) {
	tab := NewTable()
	tab.Intern("mbedtls-2.16")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Intern("mbedtls-2.16")
	}
}
