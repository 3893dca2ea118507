package server

import (
	"container/list"
	"fmt"
	"sync"

	"mhla/pkg/mhla"
)

// CacheStats is a point-in-time snapshot of the compiled-workspace
// cache counters.
type CacheStats struct {
	// Hits counts requests that found their program already present
	// (including entries still compiling — the finder waits on the
	// in-flight compile instead of starting its own).
	Hits int64 `json:"hits"`
	// Misses counts requests that inserted a new entry; every miss
	// triggers exactly one compile.
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the LRU bound. In-flight
	// requests holding an evicted workspace finish unharmed — eviction
	// only removes the cache's reference.
	Evictions int64 `json:"evictions"`
	// Compiles counts workspace compilations actually run; with a
	// large enough capacity it equals Misses (each distinct program
	// compiles exactly once).
	Compiles int64 `json:"compiles"`
	// Entries is the current resident entry count (<= capacity).
	Entries int `json:"entries"`
}

// wsEntry is one cache slot. The once gates the singleflight compile:
// whoever created the entry runs it; concurrent requests for the same
// digest wait on it and share the outcome. The entry stays valid after
// eviction — holders keep their pointer, the cache just forgets its.
type wsEntry struct {
	digest string
	once   sync.Once
	ws     *mhla.Workspace
	err    error
	// settled (guarded by the cache mutex) is set once the compile has
	// completed; the eviction scan skips unsettled entries so an
	// in-flight compile is never evicted — which is what keeps the
	// compile-exactly-once guarantee true even under capacity
	// pressure.
	settled bool
}

// wsCache is a bounded LRU of compiled workspaces keyed by canonical
// program digest, with singleflight compilation. All bookkeeping —
// lookup, insertion, recency, eviction, the stats counters — happens
// under one mutex; compilation itself runs outside it, serialized per
// entry by the entry's once.
type wsCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	entries   map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
	compiles  int64
	// onCompile, when non-nil, runs inside each compile (before the
	// work), under the entry's once — the per-program
	// compiled-exactly-once instrumentation point.
	onCompile func(digest string)
}

func newWSCache(capacity int, onCompile func(string)) *wsCache {
	if capacity < 1 {
		capacity = 1
	}
	return &wsCache{
		capacity:  capacity,
		ll:        list.New(),
		entries:   make(map[string]*list.Element, capacity),
		onCompile: onCompile,
	}
}

// get returns the workspace of the given digest, compiling it with
// compile on the first request. Exactly one goroutine compiles each
// resident digest, no matter how many arrive concurrently: the entry
// is created under the lock (one creator), and the creator and all
// finders funnel through the entry's once. Failed compiles are not
// negative-cached: the entry is dropped again — and capacity is
// enforced only after a compile succeeds — so cheap-to-create invalid
// programs can never flush compiled workspaces out of the LRU (the
// next request for the same digest recompiles and fails afresh —
// compile outcomes are deterministic per digest). Entries may
// transiently exceed capacity while compiles are in flight, bounded
// by the server's in-flight request semaphore.
func (c *wsCache) get(digest string, compile func() (*mhla.Workspace, error)) (*mhla.Workspace, error) {
	c.mu.Lock()
	if el, ok := c.entries[digest]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		e := el.Value.(*wsEntry)
		settled := e.settled
		c.mu.Unlock()
		if settled {
			// Warm hit: the compile finished long ago, nothing to
			// settle — skip the second lock on the hot path.
			return e.ws, e.err
		}
		e.once.Do(func() { c.runCompile(e, compile) })
		c.settle(e)
		return e.ws, e.err
	}
	e := &wsEntry{digest: digest}
	c.entries[digest] = c.ll.PushFront(e)
	c.misses++
	c.mu.Unlock()
	e.once.Do(func() { c.runCompile(e, compile) })
	c.settle(e)
	return e.ws, e.err
}

// settle finalizes an entry after its compile has completed: a failed
// entry is dropped (if it is still the resident one for its digest —
// idempotent across the waiters sharing the failure), a successful
// one triggers LRU eviction down to capacity.
func (c *wsCache) settle(e *wsEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.settled = true
	if e.err != nil {
		if el, ok := c.entries[e.digest]; ok && el.Value.(*wsEntry) == e {
			c.ll.Remove(el)
			delete(c.entries, e.digest)
		}
		return
	}
	// Evict least-recent settled entries until the settled population
	// fits capacity. Entries still compiling neither count toward the
	// bound nor qualify as victims: evicting one would allow a
	// duplicate compile, and counting them would let a burst of
	// in-flight (possibly invalid, soon self-removing) compiles flush
	// settled hot workspaces. The transient list overshoot is bounded
	// by the in-flight semaphore, and whichever settle runs last trims
	// the settled population back to capacity.
	settledCount := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if el.Value.(*wsEntry).settled {
			settledCount++
		}
	}
	for settledCount > c.capacity {
		var victim *list.Element
		for el := c.ll.Back(); el != nil; el = el.Prev() {
			if el.Value.(*wsEntry).settled {
				victim = el
				break
			}
		}
		c.ll.Remove(victim)
		delete(c.entries, victim.Value.(*wsEntry).digest)
		c.evictions++
		settledCount--
	}
}

func (c *wsCache) runCompile(e *wsEntry, compile func() (*mhla.Workspace, error)) {
	c.mu.Lock()
	c.compiles++
	c.mu.Unlock()
	// A panicking compile must still leave the entry with an outcome:
	// once.Do would otherwise mark it done with ws == err == nil, and
	// the unsettled entry would poison its digest (and a cache slot)
	// forever.
	defer func() {
		if r := recover(); r != nil {
			e.err = fmt.Errorf("server: workspace compile panicked: %v", r)
		}
	}()
	if c.onCompile != nil {
		c.onCompile(e.digest)
	}
	e.ws, e.err = compile()
}

// resident lists the settled entries, least recently used first: the
// warm set the persister snapshots. Failed compiles never stay
// resident (settle drops them), so every listed entry holds a
// workspace.
func (c *wsCache) resident() []*wsEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*wsEntry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*wsEntry); e.settled {
			out = append(out, e)
		}
	}
	return out
}

// stats snapshots the counters.
func (c *wsCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Compiles:  c.compiles,
		Entries:   c.ll.Len(),
	}
}
