// Package lint is a self-contained static-analysis suite that
// mechanically enforces the pipeline's determinism and hygiene
// invariants: no wall-clock reads outside the injected clocks
// (noclock), no process-global randomness (seededrand), no map
// iteration order leaking into report output (sortedrange),
// context.Context threaded first and passed down (ctxfirst), and
// sentinel errors compared with errors.Is and wrapped with %w
// (wrapsentinel).
//
// The package mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built purely on the standard
// library's go/ast, go/types, and go/importer, because the build
// environment is hermetic: the loader type-checks every package from
// source. cmd/iotlint is the multichecker binary; the self-check test
// runs the whole suite over ./... and asserts zero unsuppressed
// diagnostics, which is what keeps the seeded report byte-identical
// across worker counts as the codebase grows.
//
// Findings are suppressed one line at a time with an annotation that
// must carry a reason:
//
//	deadline := time.Now().Add(d) //lint:allow noclock real handshake deadline needs wall clock
//
// The annotation may sit on the flagged line or on the line directly
// above it. An annotation with no reason, or naming an analyzer that
// does not exist, is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. The shape matches
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to
// the real framework wholesale if the dependency ever becomes
// available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow annotations.
	Name string
	// Doc is a one-paragraph description shown by iotlint -list.
	Doc string
	// Run analyzes one type-checked package, reporting findings
	// through the Pass.
	Run func(*Pass) error
}

// A Pass hands one type-checked package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, already resolved to a file position.
// Suppressed findings are kept (with the annotation's reason) so tools
// like iotlint -json can show the full picture; only unsuppressed ones
// gate.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string

	// Suppressed marks a finding covered by a well-formed
	// //lint:allow annotation; Reason carries the annotation's text.
	Suppressed bool
	Reason     string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// A StaleAllowance is a well-formed //lint:allow annotation that
// suppressed nothing: the finding it once covered is gone, so the
// annotation is dead weight and should be removed.
type StaleAllowance struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

func (s StaleAllowance) String() string {
	return fmt.Sprintf("%s:%d:%d: stale lint:allow %s (suppresses nothing): %s",
		s.Pos.Filename, s.Pos.Line, s.Pos.Column, s.Analyzer, s.Reason)
}

// A Report is the full outcome of a lint run: every diagnostic
// (suppressed ones flagged, not dropped) plus the allowances that no
// longer cover anything.
type Report struct {
	Diagnostics []Diagnostic
	Stale       []StaleAllowance
}

// Unsuppressed returns the diagnostics that gate a run.
func (r Report) Unsuppressed() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// Suite returns every analyzer in the iotlint suite, in a fixed order:
// the six AST-local analyzers first, then the four flow-sensitive ones
// built on internal/lint/cfg.
func Suite() []*Analyzer {
	return []*Analyzer{
		Noclock(),
		Seededrand(),
		Sortedrange(),
		Ctxfirst(),
		Wrapsentinel(),
		Hotkey(),
		Lockbalance(),
		Goleak(),
		Deferclose(),
		Snapshotsafe(),
	}
}

// allowPrefix introduces a suppression annotation.
const allowPrefix = "//lint:allow "

// allowance is one parsed //lint:allow annotation.
type allowance struct {
	pos      token.Position // of the comment itself
	analyzer string
	reason   string
}

// collectAllowances parses every //lint:allow comment in the package.
func collectAllowances(fset *token.FileSet, files []*ast.File) []allowance {
	var out []allowance
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				name, reason, _ := strings.Cut(rest, " ")
				out = append(out, allowance{
					pos:      fset.Position(c.Pos()),
					analyzer: name,
					reason:   strings.TrimSpace(reason),
				})
			}
		}
	}
	return out
}

// applyAllowances marks diagnostics covered by a same-line or
// line-above //lint:allow annotation as suppressed, appends a
// diagnostic for every malformed annotation (missing reason, unknown
// analyzer), and returns the well-formed annotations that suppressed
// nothing. validNames is the set of analyzer names the caller ran.
func applyAllowances(diags []Diagnostic, allows []allowance, validNames map[string]bool) ([]Diagnostic, []StaleAllowance) {
	type key struct {
		file string
		line int
		name string
	}
	type cover struct {
		reason string
		used   *bool
	}
	covered := map[key][]cover{}
	var out []Diagnostic
	var wellFormed []struct {
		a    allowance
		used *bool
	}
	for _, a := range allows {
		if !validNames[a.analyzer] {
			out = append(out, Diagnostic{
				Analyzer: "lintallow",
				Pos:      a.pos,
				Message:  fmt.Sprintf("lint:allow names unknown analyzer %q", a.analyzer),
			})
			continue
		}
		if a.reason == "" {
			out = append(out, Diagnostic{
				Analyzer: "lintallow",
				Pos:      a.pos,
				Message:  fmt.Sprintf("lint:allow %s needs a reason", a.analyzer),
			})
			continue
		}
		// The annotation covers its own line and the line below,
		// so it works both trailing a statement and on its own line.
		used := new(bool)
		c := cover{reason: a.reason, used: used}
		covered[key{a.pos.Filename, a.pos.Line, a.analyzer}] = append(covered[key{a.pos.Filename, a.pos.Line, a.analyzer}], c)
		covered[key{a.pos.Filename, a.pos.Line + 1, a.analyzer}] = append(covered[key{a.pos.Filename, a.pos.Line + 1, a.analyzer}], c)
		wellFormed = append(wellFormed, struct {
			a    allowance
			used *bool
		}{a, used})
	}
	for _, d := range diags {
		if cs := covered[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}]; len(cs) > 0 {
			d.Suppressed = true
			d.Reason = cs[0].reason
			for _, c := range cs {
				*c.used = true
			}
		}
		out = append(out, d)
	}
	sortDiagnostics(out)
	var stale []StaleAllowance
	for _, w := range wellFormed {
		if !*w.used {
			stale = append(stale, StaleAllowance{Pos: w.a.pos, Analyzer: w.a.analyzer, Reason: w.a.reason})
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i], stale[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out, stale
}

// sortDiagnostics orders findings by file, line, column, analyzer, so
// the linter's own output is deterministic.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// CheckFull runs analyzers over pkgs and returns the full Report:
// every diagnostic with suppressed ones flagged in place, plus the
// stale //lint:allow annotations that no longer cover anything.
// Malformed //lint:allow annotations are reported as diagnostics of the
// pseudo-analyzer "lintallow".
func CheckFull(pkgs []*Package, analyzers []*Analyzer) (Report, error) {
	validNames := map[string]bool{}
	for _, a := range analyzers {
		validNames[a.Name] = true
	}
	var rep Report
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return Report{}, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		allows := collectAllowances(pkg.Fset, pkg.Files)
		marked, stale := applyAllowances(diags, allows, validNames)
		rep.Diagnostics = append(rep.Diagnostics, marked...)
		rep.Stale = append(rep.Stale, stale...)
	}
	sortDiagnostics(rep.Diagnostics)
	return rep, nil
}

// funcOf resolves a call or bare selector/ident to the *types.Func it
// uses, or nil.
func funcOf(info *types.Info, e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// pkgFunc reports whether fn is the package-level function path.name
// (methods never match).
func pkgFunc(fn *types.Func, path, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name || fn.Pkg().Path() != path {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
