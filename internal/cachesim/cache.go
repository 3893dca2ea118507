package cachesim

// This file is the hardware state of one cache level: a set-associative
// LRU cache and the FIFO prefetch buffer in front of it. Both operate
// on line indices (byte address >> lineShift); neither knows about
// costs — pricing happens in the simulator loop with the platform cost
// model.

// cache is a set-associative LRU cache over line indices, held in one
// flat pointer-free slice: set si owns slots[si*ways : si*ways+ways],
// of which the first used[si] are resident, each tag<<1|dirty. Each
// set keeps its entries ordered most-recently-used first, so LRU is
// the last resident slot and the iteration order is deterministic.
type cache struct {
	ways     int
	setMask  int64
	tagShift uint
	slots    []int64
	used     []int
}

func newCache(nsets, ways int) *cache {
	return &cache{
		ways:     ways,
		setMask:  int64(nsets - 1),
		tagShift: uint(log2(int64(nsets))),
		slots:    make([]int64, nsets*ways),
		used:     make([]int, nsets),
	}
}

// locate returns the resident slots of line's set, its set index and the
// slot index holding line (-1 when absent).
func (c *cache) locate(line int64) (set []int64, si int, idx int) {
	si = int(line & c.setMask)
	set = c.slots[si*c.ways : si*c.ways+c.used[si]]
	tag := line >> c.tagShift
	for i, e := range set {
		if e>>1 == tag {
			return set, si, i
		}
	}
	return set, si, -1
}

// access probes the cache for a demand access: a hit promotes the line
// to MRU (and marks it dirty for a store).
func (c *cache) access(line int64, dirty bool) bool {
	set, _, i := c.locate(line)
	if i < 0 {
		return false
	}
	e := set[i]
	if dirty {
		e |= 1
	}
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = e
	return true
}

// contains probes without touching recency (used by prefetch-issue
// filtering and source probing).
func (c *cache) contains(line int64) bool {
	_, _, i := c.locate(line)
	return i >= 0
}

// markDirty sets the dirty bit of a resident line without touching
// recency; it reports whether the line was present.
func (c *cache) markDirty(line int64) bool {
	set, _, i := c.locate(line)
	if i < 0 {
		return false
	}
	set[i] |= 1
	return true
}

// fill installs a line at MRU, evicting the LRU entry of a full set.
// The line must not be resident already.
func (c *cache) fill(line int64, dirty bool) (victim int64, victimDirty, evicted bool) {
	si := int(line & c.setMask)
	n := c.used[si]
	if n == c.ways {
		last := c.slots[si*c.ways+n-1]
		victim = last>>1<<c.tagShift | int64(si)
		victimDirty = last&1 != 0
		evicted = true
	} else {
		n++
		c.used[si] = n
	}
	set := c.slots[si*c.ways : si*c.ways+n]
	copy(set[1:], set[:n-1])
	e := line >> c.tagShift << 1
	if dirty {
		e |= 1
	}
	set[0] = e
	return victim, victimDirty, evicted
}

// eachDirty calls f with every dirty resident line in deterministic
// (set-major, MRU-first) order — the end-of-trace flush order. f must
// not modify this cache.
func (c *cache) eachDirty(f func(line int64)) {
	for si, n := range c.used {
		for _, e := range c.slots[si*c.ways : si*c.ways+n] {
			if e&1 != 0 {
				f(e>>1<<c.tagShift | int64(si))
			}
		}
	}
}

// prefetchBuffer is the FIFO buffer prefetched lines land in (the
// SNIPPETS-exemplar organization): demand hits consume an entry into
// the cache proper; a full buffer drops its oldest entry.
type prefetchBuffer struct {
	entries int
	lines   []int64
}

func newPrefetchBuffer(entries int) *prefetchBuffer {
	return &prefetchBuffer{entries: entries, lines: make([]int64, 0, entries)}
}

func (b *prefetchBuffer) contains(line int64) bool {
	for _, l := range b.lines {
		if l == line {
			return true
		}
	}
	return false
}

// consume removes the line if buffered, reporting whether it was.
func (b *prefetchBuffer) consume(line int64) bool {
	for i, l := range b.lines {
		if l == line {
			b.lines = append(b.lines[:i], b.lines[i+1:]...)
			return true
		}
	}
	return false
}

// push appends a line, dropping the oldest entry of a full buffer.
func (b *prefetchBuffer) push(line int64) {
	if len(b.lines) == b.entries {
		copy(b.lines, b.lines[1:])
		b.lines = b.lines[:len(b.lines)-1]
	}
	b.lines = append(b.lines, line)
}

// log2 returns floor(log2(v)) for v >= 1.
func log2(v int64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
