package lint

import (
	"go/ast"
	"go/types"
)

// Hotkey returns the analyzer that catches the allocation pattern PR 7
// removed from the ingest and match hot loops: indexing a map with a
// direct Fingerprint.Key() call. Key() marshals the fingerprint into a
// fresh string on every invocation (two allocations per lookup), so a
// map probe inside a per-record loop pays that cost once per record.
// The binary key (Fingerprint.AppendBinaryKey, or
// fingerprint.AppendRecordKey straight from the wire bytes) builds into
// a caller's stack buffer and allocates nothing on a map probe; hot maps
// key on it, or on a hoisted key string computed outside the loop.
//
// Only the direct call-in-index shape is flagged — `m[f.Key()]` — a
// Key() hoisted into a variable before the loop is clean.
func Hotkey() *Analyzer {
	a := &Analyzer{
		Name: "hotkey",
		Doc: "flags map indexing keyed by a direct Fingerprint.Key() call; Key allocates " +
			"per invocation — key on the binary key (Fingerprint.AppendBinaryKey into a " +
			"stack buffer) or hoist the key out of the loop",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ix, ok := n.(*ast.IndexExpr)
				if !ok {
					return true
				}
				tv, ok := pass.TypesInfo.Types[ix.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				call, ok := ix.Index.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := funcOf(pass.TypesInfo, call.Fun)
				if fn == nil || fn.Name() != "Key" {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() == nil || !isFingerprintType(sig.Recv().Type()) {
					return true
				}
				pass.Reportf(ix.Index.Pos(),
					"map indexed by Fingerprint.Key(), which allocates per call; "+
						"key on the binary key (Fingerprint.AppendBinaryKey) or hoist the key")
				return true
			})
		}
		return nil
	}
	return a
}

// isFingerprintType matches a (possibly pointer-wrapped) named type
// called Fingerprint — by name, so the fixture's local stand-in type
// exercises the same path as repro/internal/fingerprint.Fingerprint.
func isFingerprintType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Fingerprint"
}
