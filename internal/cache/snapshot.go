package cache

// Hierarchy state snapshots (DESIGN.md §15).
//
// A warmed hierarchy is expensive to produce — the buffer-latency warmup
// streams millions of simulated accesses — and cheap to describe: every
// cache is carved from the shared arena, so the arena's words plus the
// per-cache statistic counters ARE the complete simulated state. Capture
// copies them out, skipping arena blocks still in the empty state; Restore
// copies them back into any hierarchy of the same configuration and resets
// the skipped blocks, leaving it byte-identical to the captured one (the
// warm-state cache in internal/mlc rides on this, and
// TestSnapshotRoundTrip/TestWarmStateByteIdentical pin it).

// snapBlock is the snapshot granularity in arena words (4 KB). A measured
// hierarchy leaves much of its arena empty — one core's warmup never touches
// the other cores' private caches, and a node-confined stream never reaches
// the other nodes' LLC slices — so a snapshot keeps only the blocks that
// differ from the empty state and Restore resets the rest.
const snapBlock = 512

// Snapshot is a deep copy of a Hierarchy's complete simulated state: the
// packed tag words and sidecars of every cache plus all statistic counters.
// Snapshots are immutable once captured and safe to share across goroutines.
type Snapshot struct {
	cfg                HierConfig
	words              int      // arena length
	blocks             []int32  // ascending indices of the non-empty snapBlock blocks
	data               []uint64 // those blocks' words, packed in index order
	counters           []uint64 // Hits, Misses, Evictions per cache, all() order
	llcHits, llcMisses uint64
}

// Config returns the configuration of the hierarchy the snapshot was
// captured from; Restore only accepts hierarchies configured identically.
func (s *Snapshot) Config() HierConfig { return s.cfg }

// Bytes reports the snapshot's approximate memory footprint, for sizing the
// warm-state cache bound.
func (s *Snapshot) Bytes() int64 {
	return int64(len(s.data)+len(s.counters))*8 + int64(len(s.blocks))*4
}

// Pristine reports whether the hierarchy holds no simulated state: its slab
// arena is not carved, because it never simulated an access or was Released
// since.
func (h *Hierarchy) Pristine() bool { return h.arena == nil }

// blockRange is arena block b's word range.
func blockRange(b, words int) (lo, hi int) {
	lo = b * snapBlock
	return lo, min(lo+snapBlock, words)
}

// emptyRange reports whether arena[lo:hi] holds the empty state reset
// writes.
func (h *Hierarchy) emptyRange(lo, hi int) bool {
	for i := lo; i < hi; i++ {
		want := uint64(0)
		if i >= h.metaStart && (i-h.metaStart)%2 == 1 {
			want = identityOrder
		}
		if h.arena[i] != want {
			return false
		}
	}
	return true
}

// Capture deep-copies the hierarchy's simulated state. Every cache's slabs
// live in the arena, so the copy is always complete and the bool result is
// always true.
func (h *Hierarchy) Capture() (*Snapshot, bool) {
	h.materializeAll()
	all := h.all()
	s := &Snapshot{
		cfg:       h.cfg,
		words:     len(h.arena),
		counters:  make([]uint64, 0, 3*len(all)),
		llcHits:   h.LLCHits,
		llcMisses: h.LLCMisses,
	}
	size := 0
	for b := 0; b*snapBlock < len(h.arena); b++ {
		if lo, hi := blockRange(b, len(h.arena)); !h.emptyRange(lo, hi) {
			s.blocks = append(s.blocks, int32(b))
			size += hi - lo
		}
	}
	s.data = make([]uint64, 0, size)
	for _, b := range s.blocks {
		lo, hi := blockRange(int(b), len(h.arena))
		s.data = append(s.data, h.arena[lo:hi]...)
	}
	for _, c := range all {
		s.counters = append(s.counters, c.Hits, c.Misses, c.Evictions)
	}
	return s, true
}

// Restore overwrites the hierarchy's simulated state with the snapshot's,
// leaving it byte-identical to the hierarchy Capture saw. It reports false —
// and changes nothing — when the hierarchy's configuration or arena length
// differs from the snapshot's. The arena carve is deterministic per
// configuration, so two carves of equal configurations always have identical
// layouts. A pristine hierarchy takes an arena (recycled when one is free)
// without initializing it: Restore writes every word, copying the
// snapshot's blocks and resetting the others to the empty state.
func (h *Hierarchy) Restore(s *Snapshot) bool {
	if h.cfg != s.cfg {
		return false
	}
	fresh := false
	if h.arena == nil {
		if h.arenaWords() != s.words {
			return false
		}
		arena, recycled := takeArena(s.words)
		h.carve(arena)
		fresh = !recycled
	} else if len(h.arena) != s.words {
		return false
	}
	data, next := s.data, 0
	for b := 0; b*snapBlock < s.words; b++ {
		lo, hi := blockRange(b, s.words)
		if next < len(s.blocks) && int(s.blocks[next]) == b {
			data = data[copy(h.arena[lo:hi], data):]
			next++
		} else {
			h.reset(lo, hi, fresh)
		}
	}
	h.LLCHits, h.LLCMisses = s.llcHits, s.llcMisses
	for i, c := range h.all() {
		c.Hits, c.Misses, c.Evictions = s.counters[3*i], s.counters[3*i+1], s.counters[3*i+2]
	}
	return true
}
