package dataset

import (
	"reflect"
	"testing"

	"repro/internal/ciphersuite"
)

// TestDrawTablesBuiltOnce: the immutable tables a draw reads — the
// registered-suite list mutatePrint splices from, every profile's base
// pool and the exact-library pick — are built once per process and read
// without copying, so no Generate call rebuilds them.
func TestDrawTablesBuiltOnce(t *testing.T) {
	if !reflect.DeepEqual(registeredSuites(), ciphersuite.All()) {
		t.Fatal("registeredSuites differs from ciphersuite.All")
	}
	for _, tc := range []struct {
		name string
		read func()
	}{
		{"registeredSuites", func() { _ = registeredSuites() }},
		{"basePool", func() {
			for p := ProfileModern; p <= ProfileLegacy; p++ {
				_ = basePool(p)
			}
		}},
		{"exactLibraryEntries", func() { _ = exactLibraryEntries() }},
	} {
		if n := testing.AllocsPerRun(100, tc.read); n != 0 {
			t.Errorf("%s: %v allocations per read, want 0", tc.name, n)
		}
	}
	for p := ProfileModern; p <= ProfileLegacy; p++ {
		if len(basePool(p)) == 0 {
			t.Errorf("profile %d: empty base pool", p)
		}
	}
}
