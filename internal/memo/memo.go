// Package memo holds the memos of the step forms' shared records:
// schedules and plans that are pure functions of global knowledge, which
// every vertex of a run reads and none modifies (DESIGN.md §1).
package memo

import "sync"

// Map memoizes a pure function of its key. The zero Map is empty and
// ready to use. Warm lookups take no lock, so the round-1 boots on every
// shard worker read at once. A Map grows by one entry per distinct key
// and is never purged.
type Map[K comparable, V any] struct{ m sync.Map }

// Get returns the value memoized for k, calling build on a miss. Racing
// first callers may each build, but all of them return the value stored
// first, so a pointer or slice V is one shared record, which callers must
// treat as read-only.
func (m *Map[K, V]) Get(k K, build func() V) V {
	if v, ok := m.m.Load(k); ok {
		return v.(V)
	}
	v, _ := m.m.LoadOrStore(k, build())
	return v.(V)
}
