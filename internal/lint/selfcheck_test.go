package lint

import (
	"path/filepath"
	"testing"
)

// TestSelfCheck runs the full analyzer suite over every package in the
// repository — the same invocation as `go run ./cmd/iotlint ./...` and
// the CI lint gate — and asserts zero unsuppressed diagnostics and
// zero stale //lint:allow annotations (the -audit-allow mode). This
// is the test that keeps the determinism invariants (no wall clocks,
// no global randomness, no map-order output, contexts threaded,
// errors.Is everywhere, locks balanced, goroutines leashed, resources
// closed) holding as the codebase grows.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("self-check type-checks the whole repo from source; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CheckDirsFull(root, []string{"./..."}, Suite())
	if err != nil {
		t.Fatalf("CheckDirsFull: %v", err)
	}
	diags := rep.Unsuppressed()
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d unsuppressed finding(s); fix them or add //lint:allow <analyzer> <reason>", len(diags))
	}
	for _, s := range rep.Stale {
		t.Errorf("%s", s)
	}
	if len(rep.Stale) > 0 {
		t.Errorf("%d stale lint:allow annotation(s); the findings they covered are gone, remove them", len(rep.Stale))
	}
}

// TestSharedLoaderMemoizes pins the cross-call cache: CheckDirsFull used to
// build a fresh loader per call, re-type-checking every shared
// dependency (and the standard library behind it) from source each
// time. Two runs over the same package must cost exactly one set of
// type-checks.
func TestSharedLoaderMemoizes(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l, err := SharedLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckDirsFull(root, []string{"internal/intern"}, Suite()); err != nil {
		t.Fatalf("first CheckDirsFull: %v", err)
	}
	warm := l.TypeChecks()
	if warm == 0 {
		t.Fatal("loader reported zero type-checks after a full load")
	}
	if _, err := CheckDirsFull(root, []string{"internal/intern"}, Suite()); err != nil {
		t.Fatalf("second CheckDirsFull: %v", err)
	}
	if got := l.TypeChecks(); got != warm {
		t.Fatalf("second CheckDirsFull type-checked %d package(s); want a pure cache hit", got-warm)
	}
	again, err := SharedLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if again != l {
		t.Fatal("SharedLoader returned a different loader for the same module root")
	}
}

// TestLoaderExpand pins the pattern semantics the binary and the
// self-check rely on: ./... covers the repo, testdata and hidden
// directories stay out.
func TestLoaderExpand(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if l.Module != "repro" {
		t.Fatalf("module = %q, want repro", l.Module)
	}
	dirs, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range dirs {
		seen[filepath.ToSlash(d)] = true
		if filepath.Base(d) == "testdata" {
			t.Errorf("Expand included a testdata dir: %s", d)
		}
	}
	// The repo root holds only _test.go files, so it is rightly absent.
	for _, want := range []string{"internal/lint", "internal/core", "cmd/iotlint", "examples/quickstart"} {
		if !seen[want] {
			t.Errorf("Expand missed %s (got %v)", want, dirs)
		}
	}
	if seen["internal/lint/testdata/src/noclock"] {
		t.Error("Expand descended into testdata")
	}
}
