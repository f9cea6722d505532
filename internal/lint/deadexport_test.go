package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportKeep names every exported identifier that only tests use,
// with the reason it stays. Keys are the import path without the
// module prefix, then the identifier; a method adds its receiver type
// ("internal/graph.Bipartite.Jaccard").
var deadExportKeep = map[string]string{
	// Test fakes and fault controls.
	"internal/probe.NewFakeClock":       "virtual clock that runs retry and backoff schedules without wall-clock sleeps",
	"internal/probe.FakeClock.Advance":  "moves the virtual clock in service deadline tests",
	"internal/probe.FakeClock.Sleeps":   "lets engine tests assert the backoff schedule the virtual clock saw",
	"internal/simnet.World.ClearFaults": "undoes SetFaults so fault tests can return a world to the clean path",

	// Reference implementations tests compare the production path against.
	"internal/fingerprint.CategorizeAgainst":      "per-entry Appendix B.2 categorization the indexed MatchSemantics is checked against",
	"internal/graph.Bipartite.Jaccard":            "per-pair Jaccard the sorted-id SimilarPairs (Table 4) is checked against",
	"internal/ctlog.VerifyConsistency":            "verifier the consistency proofs ctquery serves are checked with",
	"internal/tlswire.ValidateCryptoTLS13Capture": "1.3 half of the crypto/tls differential oracle (key_share, which ClientHelloInfo hides)",

	// Paper results that only tests and benchmarks compute.
	"internal/analysis.Client.Figure9":              "Figure 9 (vulnerable components per vendor), printed by the benchmark harness",
	"internal/analysis.Server.ExpiredDuringCapture": "Table 8 narrative: expired certificates still visited during capture",
	"internal/analysis.Server.SLDs":                 "Section 5.1 SLD distribution statistics",
	"internal/graph.CDF":                            "empirical CDF behind the Figure 2 curve",
	"internal/graph.Bipartite.ConnectedComponents":  "Figure 4: the Amazon Echo fingerprint clusters, printed by the benchmark harness",
	"internal/dataset.TotalWeight":                  "the modeled population total the paper's 2,014 devices are checked against",
	"internal/smarttv.Study.KeyInfrastructure":      "Section 6.1 finding: which TV vendors run their own key infrastructure",
	"internal/labdata.Compare":                      "Section 6.2 cross-check of the lab capture against the probed servers",
	"internal/labdata.CrossCheck.AgreementRate":     "Section 6.2 issuer agreement rate",

	// Release readers: the consumer side of `iotls export`.
	"internal/export.ReadHellos": "reads the anonymized ClientHello release back",
	"internal/export.ReadCerts":  "reads the certificate release back",
	"internal/export.Stats":      "recomputes the study aggregates from a release, proving it reproduces them",

	// Accessors tests observe internal state through.
	"internal/acme.Client.Tick":                         "one step of the renewal loop the ACME client tests drive",
	"internal/analysis.Client.DevicePrints":             "per-device fingerprint set the delta-vs-batch equivalence tests compare",
	"internal/ciphersuite.LookupName":                   "name-to-codepoint lookup the registry and Appendix A tables are checked with",
	"internal/dataset.Records.TimeNS":                   "columnar timestamp the row round-trip tests compare",
	"internal/fingerprint.Fingerprint.Hash":             "stable digest whose format the fingerprint tests pin",
	"internal/fingerprint.Matcher.DistinctFingerprints": "distinct corpus prints the library-corpus tests assert",
	"internal/graph.Bipartite.AddLeft":                  "builds isolated left nodes in graph tests",
	"internal/graph.Bipartite.HasEdge":                  "edge membership the graph tests assert",
	"internal/graph.Bipartite.NumEdges":                 "graph size the graph tests assert and the Figure 3/4 benchmarks print",
	"internal/graph.Bipartite.NumLefts":                 "graph size the graph tests assert and the Figure 3/4 benchmarks print",
	"internal/graph.Bipartite.NumRights":                "graph size the graph tests assert and the Figure 3/4 benchmarks print",
	"internal/graph.Bipartite.RightDegree":              "degree the graph tests assert",
	"internal/intern.Arena.Get":                         "read side of the arena; tests check Put round-trips and dedups through it",
	"internal/intern.Arena.Len":                         "arena size the dedup tests assert",
	"internal/intern.Table.Len":                         "table size the intern tests assert",
	"internal/labdata.Dataset.SNIs":                     "distinct lab SNIs the capture tests assert",
	"internal/lint.Loader.TypeChecks":                   "type-check counter TestSharedLoaderMemoizes proves the cache with",
	"internal/obs.Gauge.Add":                            "relative gauge update the metrics tests exercise",
	"internal/obs.Span.Name":                            "span name the trace-shape tests assert",
	"internal/pki.LeafSpec.ValidityDays":                "validity arithmetic the PKI tests pin",
	"internal/pki.TrustStore.Len":                       "root count the trust-store tests assert",
	"internal/probe.Engine.BreakerStateOf":              "breaker state the engine tests assert",
	"internal/serverfp.Observation.Key":                 "canonical observation string the serverfp tests compare",
	"internal/simnet.ServerStacks":                      "paper-era stack registry the stack tests iterate",
	"internal/tlswire.ClientHello.PSKKeyExchangeModes":  "1.3 extension view the wire and fuzz tests check",
	"internal/tlswire.HelloRetryRequestRandom":          "RFC 8446 HRR marker the ServerHello tests build retries with",
	"internal/tlswire.ServerHello.HasExtension":         "extension presence the ServerHello wire tests assert",
}

// TestNoDeadExports fails on any exported package-level identifier or
// exported method that no non-test file of the repository references:
// code only tests call is a second entry point the pipeline does not
// run. It loads ./... through the shared loader — the same load as
// TestSelfCheck, covering cmd/, examples/ and perfbench/ — because a
// per-package analyzer cannot see uses from other packages. A method
// that implements an interface method is exempt: it is called through
// the interface. The keep-list must stay exact: an entry that names
// nothing, or whose identifier gained a production caller, fails too.
func TestNoDeadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("dead-export check type-checks the whole repo from source; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l, err := SharedLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	exports := exportedDecls(pkgs, l.Module)
	used := usedObjects(pkgs)
	ifaces := interfacesByMethod(pkgs)

	var dead []string
	for name, obj := range exports {
		if !used[obj] && !implementsInterface(obj, ifaces) {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		if _, ok := deadExportKeep[name]; !ok {
			pos := pkgs[0].Fset.Position(exports[name].Pos())
			t.Errorf("%s: %s is exported but no non-test file uses it; delete it, or add it to deadExportKeep with the reason tests need it", pos, name)
		}
	}
	isDead := map[string]bool{}
	for _, name := range dead {
		isDead[name] = true
	}
	for name := range deadExportKeep {
		switch {
		case exports[name] == nil:
			t.Errorf("deadExportKeep entry %s names no exported identifier; remove the entry", name)
		case !isDead[name]:
			t.Errorf("deadExportKeep entry %s now has a non-test caller; remove the entry", name)
		}
	}
}

// exportedDecls maps every exported package-level object and every
// exported method declared with a receiver to its keep-list name.
func exportedDecls(pkgs []*Package, module string) map[string]types.Object {
	out := map[string]types.Object{}
	for _, pkg := range pkgs {
		prefix := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, module), "/") + "."
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				out[prefix+name] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out[prefix+name+"."+m.Name()] = m
				}
			}
		}
	}
	return out
}

// usedObjects collects every object some non-test file refers to,
// outside the object's own declaration. Receiver type expressions do
// not count: a method declaration does not use its type.
func usedObjects(pkgs []*Package) map[types.Object]bool {
	used := map[types.Object]bool{}
	for _, pkg := range pkgs {
		declOf := map[types.Object]ast.Node{}
		skip := map[*ast.Ident]bool{}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declOf[pkg.Info.Defs[d.Name]] = d
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								skip[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							declOf[pkg.Info.Defs[s.Name]] = s
						case *ast.ValueSpec:
							for _, n := range s.Names {
								declOf[pkg.Info.Defs[n]] = s
							}
						}
					}
				}
			}
		}
		for id, obj := range pkg.Info.Uses {
			obj = originOf(obj)
			if skip[id] {
				continue
			}
			if d := declOf[obj]; d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
				continue
			}
			used[obj] = true
		}
	}
	return used
}

// originOf maps an instantiated generic function or method to its
// declaration.
func originOf(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// interfacesByMethod indexes, by method name, every non-empty
// interface a method could be called through: the named interfaces of
// the loaded packages and of everything they import (fmt.Stringer,
// sort.Interface, http.Handler, ...), error, and the interface types
// written inline in the loaded code.
func interfacesByMethod(pkgs []*Package) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || iface.Empty() {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
					continue
				}
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

// implementsInterface reports whether obj is a method through which
// its receiver type, or a pointer to it, satisfies an interface that
// declares a method of the same name.
func implementsInterface(obj types.Object, ifaces map[string][]*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, iface := range ifaces[fn.Name()] {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}
