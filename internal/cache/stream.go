package cache

import (
	"fmt"
	"runtime"
	"sync"
)

// Deterministic sharded streaming (DESIGN.md §12).
//
// Every level of the hierarchy indexes its sets from the *high* bits of the
// same Fibonacci line hash (hash >> shift), while slice routing consumes the
// low bits. So the top shardBits = 64 - max(shift) bits of the hash are a
// shared prefix of every set index the access can ever touch: its L1 set,
// its L2 set, its LLC set in whichever slice the low bits route it to — and,
// crucially, the LLC set of any L2 victim it displaces, because a victim of
// L2 set s carries the same set-index prefix as the access that evicted it.
//
// Partitioning a stream by that prefix therefore splits it into subsequences
// that touch disjoint sets at every level. Replaying each subsequence in its
// original order reproduces the serial state evolution of its sets exactly,
// for any interleaving of subsequences across workers — so the sharded
// driver below is byte-identical to the serial ReadStream by construction,
// not by tolerance. The per-cache statistic counters are the only shared
// state; they accumulate in shard-local streamCounters and merge serially.
//
// The same partition is also why sharding is profitable on a single CPU: a
// shard's sets are a contiguous 1/nShards slab region of every cache, so a
// shard-ordered replay works over a few hundred KB of resident tag state
// instead of striding randomly across megabytes of slabs.

const (
	// maxShardBits caps the shard fan-out (and the counting-sort bucket
	// arrays) regardless of how fine the smallest cache's set index is.
	maxShardBits = 10
	// minShardedLen is the stream length below which ReadStreamSharded
	// falls back to the serial loop: the partition pass only pays for
	// itself once shards hold more than a handful of accesses.
	minShardedLen = 2048
)

// streamCounters is one shard worker's private statistics sink: the fused
// loop's per-cache hit/miss/eviction tallies and the per-level histogram,
// kept local so workers never write shared counters. flushStream folds one
// into the hierarchy after the workers join.
type streamCounters struct {
	l1Hit, l1Miss, l1Evict uint64
	l2Hit, l2Miss, l2Evict uint64
	counts                 LevelCounts
	sliceHits              []uint64 // per LLC slice
	sliceMisses            []uint64
	sliceEvicts            []uint64
}

func newStreamCounters(slices int) *streamCounters {
	return &streamCounters{
		sliceHits:   make([]uint64, slices),
		sliceMisses: make([]uint64, slices),
		sliceEvicts: make([]uint64, slices),
	}
}

// streamInto is the fused L1→L2→LLC probe/fill/spill loop shared by
// ReadStream and the sharded driver — the hierarchy's only address-stream
// loop. All statistics go to st; cache state (slabs, fingerprints, order
// words) is mutated directly. Callers guarantee the hierarchy is
// materialized and that concurrent calls touch disjoint sets. Every helper
// (findIn, fillSlot, clearSlot, ordPromote and the order-word primitives
// beneath them) inlines, and the LLC is addressed through the flat
// slice-major view materializeAll records, so slice geometry stays in
// registers.
func (h *Hierarchy) streamInto(core int, addrs []uint64, rt sliceRoute, homeBits uint64, st *streamCounters) {
	l1, l2 := h.l1[core], h.l2[core]
	l1w, l1m, l1ways, l1shift, l1lru := l1.words, l1.meta, l1.ways, l1.shift, l1.lruShift
	l2w, l2m, l2ways, l2shift, l2lru := l2.words, l2.meta, l2.ways, l2.shift, l2.lruShift
	llcW, llcM := h.llcWords, h.llcMeta
	llcSets, llcWays, llcShift, llcLru := h.llcSets, h.llcWays, h.llcShift, h.llcLru
	var l1Hit, l1Miss, l1Evict, l2Hit, l2Miss, l2Evict uint64
	var nL1, nL2, nLLC, nMem uint64
	for _, addr := range addrs {
		line := addr / LineBytes
		ptag := line + 1
		hash := line * fibMul
		nib := nibbleOf(hash)
		rep := nib * swarLow

		// L1 probe (hash>>64 is 0 in Go, so a single-set cache needs no
		// special case).
		s1 := int(hash >> l1shift)
		b1 := s1 * l1ways
		set1 := l1w[b1 : b1+l1ways]
		if i := findIn(set1, l1m[2*s1], rep, ptag); i >= 0 {
			l1m[2*s1+1] = ordPromote(l1m[2*s1+1], i)
			l1Hit++
			nL1++
			continue
		}
		l1Miss++

		// L2 probe.
		s2 := int(hash >> l2shift)
		b2 := s2 * l2ways
		set2 := l2w[b2 : b2+l2ways]
		if i := findIn(set2, l2m[2*s2], rep, ptag); i >= 0 {
			l2m[2*s2+1] = ordPromote(l2m[2*s2+1], i)
			l2Hit++
			// Fill L1; its victims drop silently (L2 is inclusive of L1).
			if fillSlot(set1, l1m, s1, ptag|homeBits, nib, l1lru) != 0 {
				l1Evict++
			}
			nL2++
			continue
		}
		l2Miss++

		// LLC probe: the combined probe-promote-evict step. A victim-cache
		// hit removes the line (it is promoted into L1/L2 below, carrying
		// its dirty bit); a miss fills from memory and never reads the
		// slice's tag words. One multiply-add resolves the flat set.
		si := rt.sliceHash(hash)
		g3 := si*llcSets + int(hash>>llcShift)
		b3 := g3 * llcWays
		set3 := llcW[b3 : b3+llcWays]
		var dirtyBit uint64
		if i := findIn(set3, llcM[2*g3], rep, ptag); i >= 0 {
			dirtyBit = set3[i] & dirtyFlag
			clearSlot(set3, llcM, g3, i, llcLru)
			st.sliceHits[si]++
			nLLC++
		} else {
			st.sliceMisses[si]++
			nMem++
		}

		// Fill the private levels; spill the L2 victim to its routed slice.
		fill := ptag | homeBits | dirtyBit
		if fillSlot(set1, l1m, s1, fill, nib, l1lru) != 0 {
			l1Evict++
		}
		victim := fillSlot(set2, l2m, s2, fill, nib, l2lru)
		if victim == 0 {
			continue
		}
		l2Evict++
		vline := victim&ptagMask - 1
		vhash := vline * fibMul
		vnib := nibbleOf(vhash)
		vrep := vnib * swarLow
		var vi int
		if victim&homeBitsMask == homeBits {
			// The common mlc case: the victim shares the stream's home, so
			// its routing is already resolved.
			vi = rt.sliceHash(vhash)
		} else {
			vi = h.routeFor(unpackHome(victim)).sliceHash(vhash)
		}
		vg := vi*llcSets + int(vhash>>llcShift)
		vb := vg * llcWays
		vset := llcW[vb : vb+llcWays]
		// Spill with full insert semantics: another core's copy of the line
		// may already sit in the slice, in which case it is promoted to MRU
		// with the dirty bits merged and the resident home preserved.
		if vp := findIn(vset, llcM[2*vg], vrep, vline+1); vp >= 0 {
			llcM[2*vg+1] = ordPromote(llcM[2*vg+1], vp)
			vset[vp] |= victim & dirtyFlag
			continue
		}
		if fillSlot(vset, llcM, vg, victim, vnib, llcLru) != 0 {
			st.sliceEvicts[vi]++
		}
	}

	st.l1Hit += l1Hit
	st.l1Miss += l1Miss
	st.l1Evict += l1Evict
	st.l2Hit += l2Hit
	st.l2Miss += l2Miss
	st.l2Evict += l2Evict
	st.counts[L1] += nL1
	st.counts[L2] += nL2
	st.counts[LLC] += nLLC
	st.counts[Memory] += nMem
}

// flushStream folds one worker's counters into the hierarchy's per-cache
// statistics and the caller's histogram. Pure addition, so the merge order
// across workers cannot change the totals.
func (h *Hierarchy) flushStream(core int, st *streamCounters, counts *LevelCounts) {
	l1, l2 := h.l1[core], h.l2[core]
	l1.Hits += st.l1Hit
	l1.Misses += st.l1Miss
	l1.Evictions += st.l1Evict
	l2.Hits += st.l2Hit
	l2.Misses += st.l2Miss
	l2.Evictions += st.l2Evict
	for i, v := range st.sliceHits {
		if v != 0 {
			h.slices[i].Hits += v
			h.LLCHits += v
		}
	}
	for i, v := range st.sliceMisses {
		if v != 0 {
			h.slices[i].Misses += v
			h.LLCMisses += v
		}
	}
	for i, v := range st.sliceEvicts {
		if v != 0 {
			h.slices[i].Evictions += v
		}
	}
	for lvl, v := range st.counts {
		counts[lvl] += v
	}
}

// shardBits returns the width of the set-index prefix shared by every level
// a core's accesses can touch — the widest shard fan-out that still
// guarantees set-disjoint shards — or 0 when some cache has a single set
// (nothing to shard on).
func (h *Hierarchy) shardBits(core int) int {
	maxShift := h.l1[core].shift
	if s := h.l2[core].shift; s > maxShift {
		maxShift = s
	}
	if s := h.slices[0].shift; s > maxShift {
		maxShift = s
	}
	if maxShift >= 64 {
		return 0
	}
	b := 64 - int(maxShift)
	if b > maxShardBits {
		b = maxShardBits
	}
	return b
}

// ReadStreamSharded is ReadStream restructured around the set-index-prefix
// partition: the batch is counting-sorted into per-shard subsequences (kept
// in original order), each shard is replayed through the fused loop, and the
// shard-local counters merge serially afterwards. Results — cache state,
// statistics, the histogram — are byte-identical to ReadStream for every
// workers value (TestReadStreamShardedMatchesSerial pins it); workers only
// selects the concurrent fan-out (0 = GOMAXPROCS). Even at workers=1 the
// shard-ordered replay wins: each shard's tag state is a contiguous slab
// region that stays resident in the host cache.
//
// Like every Hierarchy method, it must not be called concurrently with any
// other access to the same hierarchy (it reuses per-hierarchy scratch).
func (h *Hierarchy) ReadStreamSharded(core int, addrs []uint64, home Home, counts *LevelCounts, workers int) {
	if core < 0 || core >= h.cfg.Cores {
		panic(fmt.Sprintf("cache: core %d out of range", core))
	}
	bits := h.shardBits(core)
	if bits == 0 || len(addrs) < minShardedLen {
		h.ReadStream(core, addrs, home, counts)
		return
	}
	h.materializeAll()
	nShards := 1 << bits
	shift := uint(64 - bits)

	// Stable counting sort by shard. The backward scatter fills each shard's
	// region from its end, so forward order within a shard is the original
	// stream order — the property the byte-identity argument rests on.
	if cap(h.shardBuf) < len(addrs) {
		h.shardBuf = make([]uint64, len(addrs))
	}
	buf := h.shardBuf[:len(addrs)]
	if cap(h.shardOff) < nShards {
		h.shardOff = make([]int32, nShards)
	}
	off := h.shardOff[:nShards]
	for i := range off {
		off[i] = 0
	}
	for _, a := range addrs {
		off[(a/LineBytes*fibMul)>>shift]++
	}
	sum := int32(0)
	for s, c := range off {
		sum += c
		off[s] = sum
	}
	for i := len(addrs) - 1; i >= 0; i-- {
		a := addrs[i]
		s := (a / LineBytes * fibMul) >> shift
		off[s]--
		buf[off[s]] = a
	}
	// off[s] is now shard s's start; shard s ends where shard s+1 starts.

	rt := h.routeFor(home)
	homeBits := packWord(0, home, false)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nShards {
		workers = nShards
	}
	runShards := func(st *streamCounters, w int) {
		for s := w; s < nShards; s += workers {
			lo := int(off[s])
			hi := len(buf)
			if s+1 < nShards {
				hi = int(off[s+1])
			}
			if lo < hi {
				h.streamInto(core, buf[lo:hi], rt, homeBits, st)
			}
		}
	}
	if workers == 1 {
		st := newStreamCounters(len(h.slices))
		runShards(st, 0)
		h.flushStream(core, st, counts)
		return
	}
	sts := make([]*streamCounters, workers)
	var wg sync.WaitGroup
	for w := range sts {
		sts[w] = newStreamCounters(len(h.slices))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runShards(sts[w], w)
		}(w)
	}
	wg.Wait()
	for _, st := range sts {
		h.flushStream(core, st, counts)
	}
}
