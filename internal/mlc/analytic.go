package mlc

import (
	"cxlmem/internal/cache"
	"cxlmem/internal/sim"
	"cxlmem/internal/topo"
)

// Analytic buffer-latency fast path (DESIGN.md §12).
//
// Far from a capacity knee, BufferLatencyOpt's answer is fully determined by
// which levels the buffer fits in: a 32 MB uniform-random working set either
// fits the effective LLC or it doesn't, and the per-level hit fractions
// follow from the CHE working-set model in internal/cache/che.go without
// simulating a single access. The estimator below composes those fractions
// with the same per-level path.HitLatency the streamed loops charge, so off
// the knee it converges to the exact measurement (the divergence bound is
// property-tested in analytic_test.go). Near a knee occupancy is genuinely
// contested and only exact simulation resolves it; the property test's
// knee-distance band marks where the estimate is trusted.

// bufferLevelFractions returns the estimated fraction of uniform-random
// accesses served by each level for a buffer of bufBytes homed per home.
// L2 is inclusive of L1 (its hit rate covers L1's); the LLC runs as an
// exclusive victim cache of L2, so their capacities add.
func bufferLevelFractions(hier *cache.Hierarchy, home cache.Home, bufBytes int64) [cache.Memory + 1]float64 {
	l1Lines, l2Lines := hier.PrivateLines(0)
	l1B := int64(l1Lines) * cache.LineBytes
	l2B := int64(l2Lines) * cache.LineBytes
	llcB := hier.EffectiveLLCLines(home) * cache.LineBytes

	h1 := cache.WorkingSetHitRate(bufBytes, l1B, 0)
	h2 := cache.WorkingSetHitRate(bufBytes, l2B, 0)
	h3 := cache.WorkingSetHitRate(bufBytes, l2B+llcB, 0)
	if h2 < h1 {
		h2 = h1
	}
	if h3 < h2 {
		h3 = h2
	}
	var frac [cache.Memory + 1]float64
	frac[cache.L1] = h1
	frac[cache.L2] = h2 - h1
	frac[cache.LLC] = h3 - h2
	frac[cache.Memory] = 1 - h3
	return frac
}

// BufferLatencyEstimate is the analytic counterpart of BufferLatencyOpt: the
// CHE level fractions weighted by the same per-level hit latencies the
// simulated loop charges. It costs microseconds instead of a warmed
// multi-million-access replay, and is accurate away from capacity knees.
func BufferLatencyEstimate(sys *topo.System, path *topo.Path, bufBytes int64) sim.Time {
	frac := bufferLevelFractions(sys.Hier, sys.HomeFor(path, 0), bufBytes)
	ns := 0.0
	for lvl := cache.L1; lvl <= cache.Memory; lvl++ {
		ns += frac[lvl] * path.HitLatency(lvl).Nanoseconds()
	}
	return sim.FromNanoseconds(ns)
}
