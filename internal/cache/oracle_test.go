package cache

import "fmt"

// The scalar reference path: one access at a time through per-cache
// Lookup/Insert/ProbeRemove operations on the packed slabs. No production
// path runs it. It is the oracle the hierarchy's only stream loop
// (stream.go) is checked against — TestReadStreamMatchesAccess and the
// sharded and snapshot tests built on it — and the per-cache API the LRU
// model check and the cache unit tests drive.

// Access performs one load or store by core to addr (a byte address) whose
// page is homed as given. It returns the level that satisfied the access.
//
// The flow models a non-inclusive hierarchy with the LLC as an L2 victim
// cache: fills from memory go to L1+L2; L2 victims are written to the routed
// LLC slice; LLC hits promote the line back into the core's L1/L2 and remove
// it from the LLC. It carves the hierarchy's arena first, so the oracle and
// the stream loop share one slab layout and may interleave on one hierarchy.
func (h *Hierarchy) Access(core int, addr uint64, home Home, write bool) Level {
	if core < 0 || core >= h.cfg.Cores {
		panic(fmt.Sprintf("cache: core %d out of range", core))
	}
	h.materializeAll()
	if h.l1[core].Lookup(addr, write) {
		return L1
	}
	if h.l2[core].Lookup(addr, write) {
		h.fillL1(core, addr, home, write)
		return L2
	}
	slice := h.slices[h.sliceFor(addr, home)]
	if found, dirty := slice.ProbeRemove(addr); found {
		// Victim-cache hit: promote to the core's private levels.
		h.LLCHits++
		h.fillPrivate(core, addr, home, write || dirty)
		return LLC
	}
	h.LLCMisses++
	h.fillPrivate(core, addr, home, write)
	return Memory
}

// sliceFor routes an address with the given home to its LLC slice.
func (h *Hierarchy) sliceFor(addr uint64, home Home) int {
	return h.routeFor(home).sliceHash(addr / LineBytes * fibMul)
}

// fillPrivate installs a line into the core's L1 and L2, spilling the L2
// victim into its routed LLC slice.
func (h *Hierarchy) fillPrivate(core int, addr uint64, home Home, dirty bool) {
	h.fillL1(core, addr, home, dirty)
	if v, ok := h.l2[core].Insert(addr, home, dirty); ok {
		// L2 victim spills to the LLC slice chosen by its own home.
		h.slices[h.sliceFor(v.Addr, v.Home)].Insert(v.Addr, v.Home, v.Dirty)
	}
}

func (h *Hierarchy) fillL1(core int, addr uint64, home Home, dirty bool) {
	// L1 victims are silently dropped: L2 is modeled as inclusive of L1.
	h.l1[core].Insert(addr, home, dirty)
}

// SliceOccupancy returns the number of valid lines in each LLC slice
// (diagnostics for the SNC-isolation tests).
func (h *Hierarchy) SliceOccupancy() []int {
	out := make([]int, len(h.slices))
	for i, s := range h.slices {
		out[i] = s.Occupancy()
	}
	return out
}

// setIndex returns the set holding addr: the high bits of the line hash.
func (c *Cache) setIndex(addr uint64) uint64 {
	return addr / LineBytes * fibMul >> c.shift
}

// Victim is a line displaced by an insertion.
type Victim struct {
	Addr  uint64
	Home  Home
	Dirty bool
}

// SizeBytes returns the modeled capacity in bytes.
func (c *Cache) SizeBytes() int64 { return int64(c.Lines()) * LineBytes }

// materialize gives a standalone cache (one built by NewCache outside any
// hierarchy) its own slab on first fill. Zero words are empty slots, so only
// the order words need an initialization pass. Inside a hierarchy the slabs
// already come from materializeAll's arena, so this is a no-op there.
func (c *Cache) materialize() {
	if c.words == nil {
		c.words = make([]uint64, c.setCount*c.ways)
		c.meta = make([]uint64, 2*c.setCount)
		for i := 1; i < len(c.meta); i += 2 {
			c.meta[i] = identityOrder
		}
	}
}

// set returns the slot words of the set holding the hashed line.
func (c *Cache) set(hash uint64) (set []uint64, s int) {
	s = int(hash >> c.shift)
	b := s * c.ways
	return c.words[b : b+c.ways], s
}

// fill writes w as the set's new MRU line into the LRU slot, returning the
// displaced word (zero if the slot was empty).
func (c *Cache) fill(set []uint64, s int, w, nib uint64) (displaced uint64) {
	return fillSlot(set, c.meta, s, w, nib, c.lruShift)
}

// touch promotes the line at physical slot p to the MRU position. Only the
// order word changes — the line stays in its slot and the fingerprint
// sidecar is untouched.
func (c *Cache) touch(s, p int) {
	c.meta[2*s+1] = ordPromote(c.meta[2*s+1], p)
}

// removeSlot deletes the line at physical slot p, clearing its word and
// fingerprint nibble and parking the freed slot at the logical tail.
func (c *Cache) removeSlot(set []uint64, s, p int) {
	clearSlot(set, c.meta, s, p, c.lruShift)
}

// Lookup probes for addr. On a hit it promotes the line to the set's MRU
// position, applies the dirty bit for writes, and returns true.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	if c.words == nil {
		c.Misses++
		return false
	}
	line := addr / LineBytes
	hash := line * fibMul
	set, s := c.set(hash)
	i := findIn(set, c.meta[2*s], nibbleOf(hash)*swarLow, line+1)
	if i < 0 {
		c.Misses++
		return false
	}
	c.touch(s, i)
	if write {
		set[i] |= dirtyFlag
	}
	c.Hits++
	return true
}

// Insert fills addr into the cache, returning the displaced victim (if any).
// A line already present is promoted to MRU and its dirty bit merged.
func (c *Cache) Insert(addr uint64, home Home, dirty bool) (Victim, bool) {
	c.materialize()
	line := addr / LineBytes
	hash := line * fibMul
	set, s := c.set(hash)
	nib := nibbleOf(hash)
	ptag := line + 1

	if i := findIn(set, c.meta[2*s], nib*swarLow, ptag); i >= 0 {
		// Already present: promote, keep the original home, merge dirty.
		c.touch(s, i)
		if dirty {
			set[i] |= dirtyFlag
		}
		return Victim{}, false
	}
	displaced := c.fill(set, s, packWord(ptag, home, dirty), nib)
	if displaced == 0 {
		return Victim{}, false
	}
	c.Evictions++
	return Victim{
		Addr:  (displaced&ptagMask - 1) * LineBytes,
		Home:  unpackHome(displaced),
		Dirty: displaced&dirtyFlag != 0,
	}, true
}

// remove deletes addr from its set if present and reports whether it was
// found and whether it was dirty.
func (c *Cache) remove(addr uint64) (found, dirty bool) {
	if c.words == nil {
		return false, false
	}
	line := addr / LineBytes
	hash := line * fibMul
	set, s := c.set(hash)
	i := findIn(set, c.meta[2*s], nibbleOf(hash)*swarLow, line+1)
	if i < 0 {
		return false, false
	}
	w := set[i]
	c.removeSlot(set, s, i)
	return true, w&dirtyFlag != 0
}

// ProbeRemove is the LLC victim-cache operation: one combined probe that, on
// a hit, removes the line (it is being promoted back into a private cache)
// and reports its dirty bit. It updates Hits/Misses exactly as a Lookup
// followed by an Invalidate used to, but touches the set once.
func (c *Cache) ProbeRemove(addr uint64) (found, dirty bool) {
	found, dirty = c.remove(addr)
	if found {
		c.Hits++
	} else {
		c.Misses++
	}
	return found, dirty
}

// Invalidate removes addr if present, returning whether it was found and
// whether it was dirty. Unlike ProbeRemove it leaves the hit/miss counters
// alone (it models an explicit flush, not a demand access).
func (c *Cache) Invalidate(addr uint64) (found, dirty bool) {
	return c.remove(addr)
}

// Occupancy returns the number of valid lines (O(capacity); intended for
// tests and diagnostics).
func (c *Cache) Occupancy() int {
	n := 0
	for _, w := range c.words {
		if w != 0 {
			n++
		}
	}
	return n
}
