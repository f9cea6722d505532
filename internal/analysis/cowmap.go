package analysis

import (
	"hash/maphash"
	"maps"
	"sync/atomic"

	"repro/internal/tlswire"
)

// numShards is the fixed shard count of every cowMap. At paper scale
// (774 prints, 2,165 devices, 696 SNIs) a shard holds a handful of
// keys, so copying one on first write is a few map entries, while a
// Clone copies 256 pointers per map whatever the state's size.
const numShards = 256

// lastGen hands out generations. Every Client writes under its own
// generation, and Clone gives both the original and the copy fresh
// ones, so no two Clients can ever own the same shard.
var lastGen atomic.Uint64

func nextGen() uint64 { return lastGen.Add(1) }

// cowShard is one shard of a cowMap: its entries and the generation of
// the Client allowed to write them in place.
type cowShard[K comparable, V any] struct {
	gen uint64
	m   map[K]V
}

// cowMap is the copy-on-write map behind every Client index. Its keys
// spread over numShards fixed shards, each stamped with the generation
// of the Client that created it. Cloning a Client copies the shard
// pointers only; shards are then shared, and the first write to one
// under a newer generation copies that shard alone. A shard reachable
// from a published snapshot is therefore never written again, so
// readers need no lock. hash picks a key's shard and must be set before
// first use.
type cowMap[K comparable, V any] struct {
	shards [numShards]*cowShard[K, V]
	hash   func(K) uint64
	n      int
}

// shardSeed seeds the shard hash, so a client that picks its device
// IDs or SNIs cannot aim them all at one shard.
var shardSeed = maphash.MakeSeed()

func hashString(s string) uint64 { return maphash.String(shardSeed, s) }

func hashVersion(v tlswire.Version) uint64 { return uint64(v) }

func (m *cowMap[K, V]) shard(k K) **cowShard[K, V] {
	return &m.shards[m.hash(k)%numShards]
}

// get returns the value stored under k.
func (m *cowMap[K, V]) get(k K) (V, bool) {
	if s := *m.shard(k); s != nil {
		v, ok := s.m[k]
		return v, ok
	}
	var zero V
	return zero, false
}

// len returns the number of keys.
func (m *cowMap[K, V]) len() int { return m.n }

// each calls f for every entry, in no particular order.
func (m *cowMap[K, V]) each(f func(K, V)) {
	for _, s := range m.shards {
		if s == nil {
			continue
		}
		for k, v := range s.m {
			f(k, v)
		}
	}
}

// set stores v under k on behalf of the Client writing under gen. A
// shard another generation owns is copied first and the copy replaces
// it in this map only.
func (m *cowMap[K, V]) set(gen uint64, k K, v V) {
	p := m.shard(k)
	s := *p
	switch {
	case s == nil:
		s = &cowShard[K, V]{gen: gen, m: map[K]V{}}
		*p = s
	case s.gen != gen:
		s = &cowShard[K, V]{gen: gen, m: maps.Clone(s.m)}
		*p = s
	}
	before := len(s.m)
	s.m[k] = v
	m.n += len(s.m) - before
}
