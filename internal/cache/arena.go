package cache

import (
	"runtime"
	"sync"
)

// Slab arena recycling (DESIGN.md §15).
//
// Every sweep point of an exact buffer measurement builds a private System,
// and its hierarchy needs a full slab arena (~17.7 MB for the SPR model)
// even when a warm-state Restore overwrites every word of it a moment
// later. Hierarchies hand their arena back with Release; the next
// materialize or Restore of the same arena length takes it from this free
// list instead of allocating. The list is keyed by arena length and bounded
// to GOMAXPROCS arenas per length — sweeps run at most GOMAXPROCS points at
// once, so a bigger list would only pin memory no one takes back.
var arenaPool = struct {
	sync.Mutex
	free map[int][][]uint64
}{free: make(map[int][][]uint64)}

// takeArena returns an arena of n words: a released one when the free list
// holds one (recycled is true; its contents are whatever the last owner
// left), otherwise a fresh zeroed allocation advised toward huge pages.
func takeArena(n int) (arena []uint64, recycled bool) {
	arenaPool.Lock()
	if list := arenaPool.free[n]; len(list) > 0 {
		arena = list[len(list)-1]
		list[len(list)-1] = nil
		arenaPool.free[n] = list[:len(list)-1]
		arenaPool.Unlock()
		return arena, true
	}
	arenaPool.Unlock()
	arena = make([]uint64, n)
	adviseHugePages(arena)
	return arena, false
}

// releaseArena hands an arena to the free list, or drops it for the garbage
// collector when the list already holds GOMAXPROCS arenas of its length.
func releaseArena(arena []uint64) {
	n := len(arena)
	arenaPool.Lock()
	defer arenaPool.Unlock()
	if len(arenaPool.free[n]) < runtime.GOMAXPROCS(0) {
		arenaPool.free[n] = append(arenaPool.free[n], arena)
	}
}

// Release returns the hierarchy to its pristine state — no arena, no slab
// views, zeroed counters, exactly as NewHierarchy built it — and hands its
// arena to the free list for the next hierarchy of the same arena length.
// The hierarchy stays usable: its next access materializes a clean arena.
// Release is idempotent; call it when a measurement's hierarchy is done.
func (h *Hierarchy) Release() {
	if h.arena == nil {
		return
	}
	arena := h.arena
	for _, c := range h.all() {
		c.words, c.meta = nil, nil
		c.Hits, c.Misses, c.Evictions = 0, 0, 0
	}
	h.LLCHits, h.LLCMisses = 0, 0
	h.arena, h.metaStart, h.llcWords, h.llcMeta = nil, 0, nil, nil
	h.llcSets, h.llcWays, h.llcShift, h.llcLru = 0, 0, 0, 0
	h.shardBuf, h.shardOff = nil, nil
	releaseArena(arena)
}
