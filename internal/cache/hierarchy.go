package cache

import "fmt"

// HierConfig sizes a Hierarchy. The defaults (see SPRHierConfig) follow the
// paper's Intel Xeon 6430 system: 32 cores in 4 chiplets, 60 MB LLC.
type HierConfig struct {
	// Cores is the number of cores, each with private L1/L2 and one LLC
	// slice (Intel allocates one slice per core).
	Cores int
	// SNCNodes is the number of sub-NUMA clusters (1 = SNC disabled).
	// Cores must divide evenly among nodes.
	SNCNodes int
	// L1Bytes/L1Ways size each core's L1 data cache.
	L1Bytes int64
	L1Ways  int
	// L2Bytes/L2Ways size each core's private L2.
	L2Bytes int64
	L2Ways  int
	// LLCSliceBytes/LLCWays size each LLC slice.
	LLCSliceBytes int64
	LLCWays       int
	// CXLBreaksIsolation selects whether remote/CXL-homed victims may use
	// every slice (true: the measured hardware behaviour, O6) or are
	// confined to the accessor's node (false: the ablation in DESIGN.md §6).
	CXLBreaksIsolation bool
}

// SPRHierConfig returns the hierarchy of the evaluated Xeon 6430: 32 cores,
// 48 KB L1D, 2 MB L2 per core, 60 MB LLC in 32 slices, with the given SNC
// node count (1 or 4).
func SPRHierConfig(sncNodes int) HierConfig {
	return HierConfig{
		Cores:              32,
		SNCNodes:           sncNodes,
		L1Bytes:            48 << 10,
		L1Ways:             12,
		L2Bytes:            2 << 20,
		L2Ways:             16,
		LLCSliceBytes:      (60 << 20) / 32,
		LLCWays:            15,
		CXLBreaksIsolation: true,
	}
}

// Validate reports configuration errors.
func (c HierConfig) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cache: %d cores", c.Cores)
	}
	if c.SNCNodes <= 0 || c.Cores%c.SNCNodes != 0 {
		return fmt.Errorf("cache: %d cores do not divide into %d SNC nodes", c.Cores, c.SNCNodes)
	}
	return nil
}

// Hierarchy is the full multi-core cache system.
type Hierarchy struct {
	cfg    HierConfig
	l1     []*Cache // per core
	l2     []*Cache // per core
	slices []*Cache // per core (one slice each)

	// LLCHits/LLCMisses aggregate slice-level statistics.
	LLCHits, LLCMisses uint64

	arena     []uint64 // slab arena shared by every cache; nil until carved, nil again after Release
	metaStart int      // arena offset of the first sidecar word; every tag word lies below it

	// llcWords/llcMeta are flat, slice-major views of every LLC slice's tag
	// words and sidecar pairs: slice si's set s is flat set si*llcSets+s, so
	// the stream loop resolves an LLC set with one multiply-add instead of a
	// per-slice pointer chase. Every slice shares one geometry (NewHierarchy
	// builds them identically), recorded once alongside. Set by carve;
	// they alias the arena the Cache structs mutate.
	llcWords, llcMeta []uint64
	llcSets, llcWays  int
	llcShift, llcLru  uint

	// Reusable counting-sort scratch for ReadStreamSharded (stream.go).
	shardBuf []uint64
	shardOff []int32
}

// materializeAll backs every cache with a slab carved from one contiguous
// arena, madvised toward 2 MB pages, and records the flat LLC view. It is the
// only way a hierarchy's caches get empty slabs. A simulated access touches
// two or three random sets across megabytes of slab; on 4 KB pages each touch
// costs a dTLB miss whose page walk serializes the whole stream, so pooling
// the slabs into a huge-page arena is worth more than any micro-optimization
// of the probe loops. A recycled arena (see Release) is reset in full, so
// every materialized hierarchy starts from the same empty state.
func (h *Hierarchy) materializeAll() {
	if h.arena != nil {
		return
	}
	arena, recycled := takeArena(h.arenaWords())
	h.carve(arena)
	h.reset(0, len(arena), !recycled)
}

// reset writes the empty state into arena[lo:hi]: zero tag words, zero
// fingerprint words and identity order words (the odd words of the sidecar
// run that starts at metaStart). A freshly allocated arena is already zero,
// so fresh leaves zero words unwritten and their pages untouched.
func (h *Hierarchy) reset(lo, hi int, fresh bool) {
	if !fresh {
		clear(h.arena[lo:hi])
	}
	if lo < h.metaStart {
		lo = h.metaStart
	}
	if (lo-h.metaStart)%2 == 0 {
		lo++
	}
	for i := lo; i < hi; i += 2 {
		h.arena[i] = identityOrder
	}
}

// arenaWords is the length of the arena carve lays out: every cache's tag
// words plus its fingerprint and order sidecar words.
func (h *Hierarchy) arenaWords() int {
	total := 0
	for _, c := range h.all() {
		total += c.setCount*c.ways + 2*c.setCount
	}
	return total
}

// carve backs every cache with its slab of arena (arenaWords long) and
// records the flat LLC view; the slabs keep whatever arena holds. The carve
// is deterministic per configuration, so equal configurations always share
// one layout — the property snapshots rely on.
func (h *Hierarchy) carve(arena []uint64) {
	h.arena = arena
	all := h.all()
	off := 0
	cut := func(n int) []uint64 {
		s := arena[off : off+n : off+n]
		off += n
		return s
	}
	// Carve in two passes — all words, then all sidecars, each in all()
	// order — so that each slice-level array is contiguous across slices:
	// the LLC slices come first, so their words and their sidecars each
	// form one slice-major run.
	for _, c := range all {
		c.words = cut(c.setCount * c.ways)
	}
	h.metaStart = off
	for _, c := range all {
		c.meta = cut(2 * c.setCount)
	}
	s0, n := h.slices[0], len(h.slices)
	h.llcWords = arena[:n*s0.setCount*s0.ways]
	h.llcMeta = arena[h.metaStart : h.metaStart+n*2*s0.setCount]
	h.llcSets, h.llcWays, h.llcShift, h.llcLru = s0.setCount, s0.ways, s0.shift, s0.lruShift
}

// all yields every cache in the hierarchy, LLC slices first (they are the
// hottest slabs, so they get the front of the arena).
func (h *Hierarchy) all() []*Cache {
	out := make([]*Cache, 0, 3*len(h.l1))
	out = append(out, h.slices...)
	out = append(out, h.l2...)
	out = append(out, h.l1...)
	return out
}

// NewHierarchy builds the hierarchy for the given configuration.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{cfg: cfg}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, NewCache(cfg.L1Bytes, cfg.L1Ways))
		h.l2 = append(h.l2, NewCache(cfg.L2Bytes, cfg.L2Ways))
		h.slices = append(h.slices, NewCache(cfg.LLCSliceBytes, cfg.LLCWays))
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() HierConfig { return h.cfg }

// sliceRoute is the hoisted slice-routing decision for one Home: the probe
// loop resolves it once per stream instead of once per access. sliceHash
// maps a line's hash into [base, base+count) — with a mask when count is a power
// of two (it always is on the modeled SPR part), a modulo otherwise.
type sliceRoute struct {
	base  int
	count uint64
	mask  uint64 // count-1 when count is a power of two, else 0
}

// routeFor resolves the SNC isolation rules of §4.3 for the given home.
func (h *Hierarchy) routeFor(home Home) sliceRoute {
	confined := false
	if h.cfg.SNCNodes > 1 {
		switch home.Kind {
		case HomeLocalDDR:
			confined = true
		case HomeRemote:
			confined = !h.cfg.CXLBreaksIsolation
		}
	}
	r := sliceRoute{count: uint64(h.cfg.Cores)}
	if confined {
		perNode := h.cfg.Cores / h.cfg.SNCNodes
		r.base = home.Node * perNode
		r.count = uint64(perNode)
	}
	if r.count&(r.count-1) == 0 {
		r.mask = r.count - 1
	}
	return r
}

// sliceHash routes a hashed line (addr/LineBytes*fibMul) to its LLC slice
// index; callers share the hash with the set-index computation.
func (r sliceRoute) sliceHash(hash uint64) int {
	if r.mask != 0 {
		return r.base + int(hash&r.mask)
	}
	return r.base + int(hash%r.count)
}

// EffectiveLLCBytes returns the LLC capacity visible to lines with the given
// home: the whole socket for remote/CXL lines when isolation is broken, a
// single node's slices otherwise.
func (h *Hierarchy) EffectiveLLCBytes(home Home) int64 {
	total := int64(h.cfg.Cores) * h.cfg.LLCSliceBytes
	if h.cfg.SNCNodes == 1 {
		return total
	}
	if home.Kind == HomeRemote && h.cfg.CXLBreaksIsolation {
		return total
	}
	return total / int64(h.cfg.SNCNodes)
}

// PrivateLines returns a core's L1 and L2 capacities in cache lines, from
// the built caches' actual geometry (set counts are rounded to powers of
// two, so this can differ from the configured byte sizes). The analytic
// fidelity tier (internal/mlc) sizes its level-fraction model from these.
func (h *Hierarchy) PrivateLines(core int) (l1Lines, l2Lines int) {
	if core < 0 || core >= h.cfg.Cores {
		panic(fmt.Sprintf("cache: core %d out of range", core))
	}
	return h.l1[core].Lines(), h.l2[core].Lines()
}

// EffectiveLLCLines is EffectiveLLCBytes in cache lines, measured from the
// built slices' actual geometry rather than the configured byte sizes.
func (h *Hierarchy) EffectiveLLCLines(home Home) int64 {
	total := int64(h.slices[0].Lines()) * int64(h.cfg.Cores)
	if h.cfg.SNCNodes == 1 {
		return total
	}
	if home.Kind == HomeRemote && h.cfg.CXLBreaksIsolation {
		return total
	}
	return total / int64(h.cfg.SNCNodes)
}

// homeBitsMask selects a word's home (kind + node) bits.
const homeBitsMask = remoteFlag | uint64(MaxHomeNode)<<nodeShift

// ReadStream performs one read access per address in addrs, all issued by
// core against pages homed the same way, and accumulates into counts the
// level that satisfied each access. The flow models a non-inclusive
// hierarchy with the LLC as an L2 victim cache: fills from memory go to
// L1+L2, L2 victims spill to their routed LLC slice, and LLC hits promote
// the line back into the core's L1/L2 and remove it from the LLC. It is
// behaviorally identical to the one-access-at-a-time reference in
// oracle_test.go (TestReadStreamMatchesAccess pins this), but the whole
// L1→L2→LLC probe/fill/spill chain is fused into one loop body working
// directly on the packed slabs:
//
//   - the line hash is computed once and shared by the set indices, the
//     slice route and the fingerprint nibble (they consume different bit
//     ranges of one product);
//   - every probe is a SWAR fingerprint match — no way scans;
//   - each probed set is touched exactly once per access, and a full miss
//     never reads the tag words at all;
//   - hit/miss counters accumulate in locals and flush once per call.
func (h *Hierarchy) ReadStream(core int, addrs []uint64, home Home, counts *LevelCounts) {
	if core < 0 || core >= h.cfg.Cores {
		panic(fmt.Sprintf("cache: core %d out of range", core))
	}
	h.materializeAll()
	st := newStreamCounters(len(h.slices))
	h.streamInto(core, addrs, h.routeFor(home), packWord(0, home, false), st)
	h.flushStream(core, st, counts)
}
