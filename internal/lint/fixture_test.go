package lint

// fixture_test.go is the analysistest analogue for the hermetic
// framework: it loads a testdata/src package, runs one analyzer, and
// compares the diagnostics against the fixture's trailing
//
//	// want `regex`
//
// comments line by line. Every diagnostic must be wanted and every
// want must fire, so a fixture with wants fails the test the moment
// its analyzer stops reporting.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var wantRe = regexp.MustCompile("// want `([^`]+)`")

// fixtureEnv shares one file set and one source importer across every
// loadFixture call, so the standard library packages the fixtures
// import (net, os, sync, ...) are type-checked once per test process
// instead of once per fixture.
var fixtureEnv struct {
	once sync.Once
	fset *token.FileSet
	imp  types.Importer
}

func fixtureImporter() (*token.FileSet, types.Importer) {
	fixtureEnv.once.Do(func() {
		disableCgo()
		fixtureEnv.fset = token.NewFileSet()
		fixtureEnv.imp = importer.ForCompiler(fixtureEnv.fset, "source", nil)
	})
	return fixtureEnv.fset, fixtureEnv.imp
}

// loadFixture parses and type-checks the fixture package at
// testdata/src/<rel>, using <rel> as the import path so analyzers with
// path-based policies (noclock's internal/obs exemption) see realistic
// paths.
func loadFixture(t *testing.T, rel string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(rel))
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	fset, imp := fixtureImporter()
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse fixture: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(rel, fset, files, info)
	if err != nil {
		t.Fatalf("type-check fixture %s: %v", rel, err)
	}
	return &Package{Path: rel, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}
}

// wantKey identifies one expectation site.
type wantKey struct {
	file string
	line int
}

// wantEntry is one expectation; hit marks it matched.
type wantEntry struct {
	re  *regexp.Regexp
	hit bool
}

// collectWants extracts the fixture's expectations.
func collectWants(t *testing.T, pkg *Package) map[wantKey][]*wantEntry {
	t.Helper()
	wants := map[wantKey][]*wantEntry{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				k := wantKey{pos.Filename, pos.Line}
				wants[k] = append(wants[k], &wantEntry{re: re})
			}
		}
	}
	return wants
}

// runFixture checks one analyzer against one fixture package.
func runFixture(t *testing.T, a *Analyzer, rel string) {
	t.Helper()
	pkg := loadFixture(t, rel)
	rep, err := CheckFull([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("CheckFull: %v", err)
	}
	wants := collectWants(t, pkg)
	for _, d := range rep.Unsuppressed() {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		found := false
		for _, w := range wants[k] {
			if !w.hit && w.re.MatchString(d.Message) {
				w.hit = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s:%d: no diagnostic matched %q", k.file, k.line, w.re)
			}
		}
	}
}
