package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/core").
	Path string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Fset positions every file in the loader's shared set.
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages of one module from source.
// It needs no network and no go command: module-local imports are
// resolved by walking the module tree, everything else (the standard
// library) goes through go/importer's source importer. Packages are
// cached, so loading ./... type-checks each module package exactly
// once. Test files (_test.go) are excluded: the determinism invariants
// guard production output paths, and tests exercise wall clocks and
// fake randomness on purpose.
type Loader struct {
	Root   string // module root (directory containing go.mod)
	Module string // module path from go.mod

	fset *token.FileSet
	src  types.Importer
	mu   sync.Mutex
	pkgs map[string]*Package

	typeChecks int // module-local packages type-checked from source
}

// TypeChecks returns how many module-local packages this loader has
// type-checked from source. Cache hits do not count, so the counter
// going flat across two CheckDirsFull calls proves the memoization
// works.
func (l *Loader) TypeChecks() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.typeChecks
}

// disableCgo makes the source importer type-check cgo-capable stdlib
// packages (net, os/user) in their pure-Go configuration, which is the
// only configuration that can be checked from source alone.
var disableCgo = sync.OnceFunc(func() { build.Default.CgoEnabled = false })

// NewLoader creates a loader for the module rooted at or above dir.
func NewLoader(dir string) (*Loader, error) {
	disableCgo()
	root, mod, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Module: mod,
		fset:   fset,
		src:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*Package{},
	}, nil
}

// findModule walks up from dir to the nearest go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		dir = parent
	}
}

// Load type-checks the package in the given directory (absolute or
// relative to the module root).
func (l *Loader) Load(dir string) (*Package, error) {
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(l.Root, dir)
	}
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return nil, err
	}
	path := l.Module
	if rel != "." {
		path = l.Module + "/" + filepath.ToSlash(rel)
	}
	return l.loadPath(path)
}

// Expand resolves package patterns ("./...", a directory, or an
// import path below the module) to the sorted list of package
// directories relative to the module root.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(rel string) {
		if !seen[rel] {
			seen[rel] = true
			dirs = append(dirs, rel)
		}
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if base == "." || base == "" {
			base = ""
		}
		start := filepath.Join(l.Root, filepath.FromSlash(base))
		if !recursive {
			if hasGoFiles(start) {
				rel, err := filepath.Rel(l.Root, start)
				if err != nil {
					return nil, err
				}
				add(rel)
				continue
			}
			return nil, fmt.Errorf("lint: no Go files in %s", pat)
		}
		err := filepath.WalkDir(start, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != start && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				rel, err := filepath.Rel(l.Root, p)
				if err != nil {
					return err
				}
				add(rel)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LoadPatterns expands patterns and loads every matched package.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	dirs, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// hasGoFiles reports whether dir contains at least one non-test .go
// file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true
		}
	}
	return false
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// loadPath loads a module-local import path, caching the result.
func (l *Loader) loadPath(path string) (*Package, error) {
	l.mu.Lock()
	if pkg, ok := l.pkgs[path]; ok {
		l.mu.Unlock()
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return pkg, nil
	}
	l.pkgs[path] = nil // cycle guard
	l.typeChecks++
	l.mu.Unlock()

	pkg, err := l.typeCheck(path)

	l.mu.Lock()
	if err != nil {
		delete(l.pkgs, path)
	} else {
		l.pkgs[path] = pkg
	}
	l.mu.Unlock()
	return pkg, err
}

func (l *Loader) typeCheck(path string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", path)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: moduleImporter{l},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		if len(typeErrs) > 0 {
			err = typeErrs[0]
		}
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// moduleImporter resolves module-local imports through the loader (so
// each module package is type-checked once, with full syntax) and
// delegates the rest to the source importer.
type moduleImporter struct{ l *Loader }

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.l.Module || strings.HasPrefix(path, m.l.Module+"/") {
		pkg, err := m.l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.l.src.Import(path)
}

// sharedLoaders memoizes one Loader per module root for the life of
// the process, so repeated CheckDirsFull calls (the self-check test, the
// warm half of BenchmarkIotlintSelf, editor integrations that lint on
// save) type-check each package — and the standard library behind it —
// exactly once. The cache never observes source edits made after the
// first load; a process that needs a fresh view uses NewLoader.
var (
	sharedMu      sync.Mutex
	sharedLoaders = map[string]*Loader{}
)

// SharedLoader returns the process-wide loader for the module at or
// above dir, creating it on first use.
func SharedLoader(dir string) (*Loader, error) {
	root, _, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if l, ok := sharedLoaders[root]; ok {
		return l, nil
	}
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	sharedLoaders[root] = l
	return l, nil
}

// CheckDirsFull is the one-call entry used by cmd/iotlint and the
// self-check test: load every package matching patterns under the
// module containing root, run the analyzers over them, and return the
// full Report, including suppressed diagnostics and stale //lint:allow
// annotations. The loader is shared process-wide, so back-to-back calls
// reuse every type-checked package.
func CheckDirsFull(root string, patterns []string, analyzers []*Analyzer) (Report, error) {
	l, err := SharedLoader(root)
	if err != nil {
		return Report{}, err
	}
	pkgs, err := l.LoadPatterns(patterns)
	if err != nil {
		return Report{}, err
	}
	return CheckFull(pkgs, analyzers)
}
