package fingerprint

import (
	"repro/internal/intern"

	"repro/internal/tlswire"
)

// Interned is the arena-backed, comparable form of a Fingerprint: the
// ciphersuite and extension lists are replaced by deduped handles into
// a shared intern.Arena, so the whole fingerprint packs into twelve
// bytes and works directly as a map key. Hot paths key memos on
// Interned instead of the Key() string, which costs two allocations
// per call to build.
type Interned struct {
	Version tlswire.Version
	Suites  intern.Handle
	Exts    intern.Handle
}

// Intern converts f to its arena-backed form, registering its lists in
// a on first sight. Warm calls (lists already present) allocate
// nothing.
func (f Fingerprint) Intern(a *intern.Arena) Interned {
	return Interned{
		Version: f.Version,
		Suites:  a.Put(f.CipherSuites),
		Exts:    a.Put(f.Extensions),
	}
}
