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
