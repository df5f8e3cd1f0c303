// Package mlc reimplements the measurement semantics of Intel Memory Latency
// Checker (MLC) against the simulated system (paper §3.2):
//
//   - idle latency: a pointer chase — each load's address depends on the
//     previous load's value, so accesses are fully serialized — over a buffer
//     larger than the total LLC, forcing every access to memory. Every
//     access then pays Path.SerialLatency, which fig3 uses directly; the
//     chase itself is the test oracle that pins it (chase_test.go);
//   - loaded bandwidth: all cores issue sequential streams at a given
//     read:write ratio, measuring the delivered fraction of the device's
//     theoretical peak (the paper's "bandwidth efficiency" metric, Fig. 4a);
//   - buffer latency: average latency of random accesses within a buffer of
//     a chosen size, which exposes the SNC/LLC interaction of §4.3 (Fig. 5).
//
// The measurement loops are streamed: addresses are generated in large
// chunks and driven through cache.Hierarchy.ReadStreamSharded, which
// partitions each chunk by set-index prefix, replays the shards (optionally
// across StreamOptions.Workers goroutines), and accumulates a per-level hit
// histogram; the average latency is computed once per level at the end.
// Sharding is byte-identical to the serial stream for every worker count
// (see internal/cache/stream.go), and because every access at a level
// contributes the same integer path.HitLatency, the histogram arithmetic is
// exactly the historical per-access sum.
//
// For far-from-knee operating points the analytic fast path (analytic.go)
// replaces simulation entirely; see DESIGN.md §12.
package mlc

import (
	"context"

	"cxlmem/internal/cache"
	"cxlmem/internal/mem"
	"cxlmem/internal/sim"
	"cxlmem/internal/topo"
)

// chunkLines is the streamed loops' address-chunk size. Chunks are the unit
// the sharded stream engine partitions, so bigger is better — each shard's
// subsequence grows proportionally, and with it the host-cache locality of
// the shard replay — bounded here at 4 MB of addresses per chunk. Chunk
// boundaries never change results (TestReadStreamShardedChunkingInvariant).
const chunkLines = 512 << 10

// StreamOptions tunes how the measurement loops drive the cache hierarchy.
// The zero value reproduces the historical defaults. Every knob is
// throughput-only: measured values are byte-identical for any setting.
type StreamOptions struct {
	// Workers bounds the sharded stream engine's concurrent shard workers;
	// 0 uses every available CPU.
	Workers int
	// Ctx bounds BufferLatencyOpt's warmup and measurement streams: it is
	// checked between address chunks, and a cancellation unwinds as a panic carrying Ctx's error
	// (the sweep engine's convention — experiments.recoverAsErr restores
	// it). A canceled warmup is never retained by the warm-state cache.
	// nil means uncancellable.
	Ctx context.Context
}

// context resolves Ctx, nil meaning uncancellable.
func (o StreamOptions) context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// streamTotal converts a per-level hit histogram into the total simulated
// latency — identical arithmetic to summing path.HitLatency per access,
// performed once per level.
func streamTotal(path *topo.Path, counts *cache.LevelCounts) sim.Time {
	var total sim.Time
	for lvl := cache.L1; lvl <= cache.Memory; lvl++ {
		total += sim.Time(counts[lvl]) * path.HitLatency(lvl)
	}
	return total
}

// warmPasses is the fixed warmup length: BufferLatencyOpt streams this many
// buffers' worth of random touches before sampling. The golden corpus pins
// this one definition of steady state.
const warmPasses = 6

// runWarmup brings hier to the buffer measurement's steady state with
// warmPasses buffers' worth of random touches, drawing the warmup stream
// from rng (which is left positioned at the start of the measurement
// stream). It is the single warmup implementation: the inline path and the
// warm-state cache's compute path both call it, so a restored snapshot is
// byte-identical to a cold warmup by construction.
func runWarmup(ctx context.Context, hier *cache.Hierarchy, home cache.Home, lines int64, rng *sim.Rng, workers int) error {
	var counts cache.LevelCounts
	return streamRandom(ctx, hier, home, lines, rng, int(lines)*warmPasses, workers, &counts)
}

// streamRandom drives n uniform random touches of the buffer's lines, drawn
// from rng, through the sharded engine into counts. ctx is checked between
// address chunks; the only error returned is ctx's.
func streamRandom(ctx context.Context, hier *cache.Hierarchy, home cache.Home, lines int64, rng *sim.Rng, n, workers int, counts *cache.LevelCounts) error {
	chunk := make([]uint64, min(n, chunkLines))
	for remaining := n; remaining > 0; {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := min(remaining, chunkLines)
		b := chunk[:k]
		for i := range b {
			b[i] = uint64(rng.Int63n(lines)) * cache.LineBytes
		}
		hier.ReadStreamSharded(0, b, home, counts, workers)
		remaining -= k
	}
	return nil
}

// BufferLatencyOpt measures the average latency of random accesses within a
// buffer of bufBytes homed on path's device — the §4.3 experiment: a 32 MB
// buffer fits the socket-wide LLC when homed on CXL memory but overflows a
// single SNC node's slices when homed on local DDR. Random accesses are
// independent of each other, so the whole warmup and
// measurement stream is generated ahead of the simulation in large chunks
// and driven through the sharded engine. The warmup goes through the
// warm-state snapshot cache (warmstate.go) when the hierarchy is pristine:
// repeated operating points restore the memoized warmed state instead of
// re-simulating millions of warmup accesses.
func BufferLatencyOpt(sys *topo.System, path *topo.Path, bufBytes int64, samples int, seed uint64, o StreamOptions) sim.Time {
	if samples <= 0 || bufBytes < cache.LineBytes {
		panic("mlc: invalid buffer latency parameters")
	}
	hier := sys.Hier
	home := sys.HomeFor(path, 0)
	lines := bufBytes / cache.LineBytes

	// rng comes back positioned at the start of the measurement stream,
	// whether the warmup was simulated or restored from a snapshot.
	ctx := o.context()
	rng := warmBuffer(ctx, hier, home, lines, seed, o)

	var counts cache.LevelCounts
	if err := streamRandom(ctx, hier, home, lines, rng, samples, o.Workers, &counts); err != nil {
		panic(err) // the sweep convention, as in warmBuffer
	}
	return streamTotal(path, &counts) / sim.Time(samples)
}

// BandwidthResult reports one loaded-bandwidth measurement.
type BandwidthResult struct {
	// AchievedGBs is the delivered bandwidth.
	AchievedGBs float64
	// Efficiency is AchievedGBs over the device's theoretical peak — the
	// y-axis of Fig. 4.
	Efficiency float64
}

// LoadedBandwidth measures the maximum sequential bandwidth at the given
// read:write mix: every core streams, offering far more demand than any
// device can serve, so the result is capacity at that mix.
func LoadedBandwidth(path *topo.Path, mix mem.MixPoint) BandwidthResult {
	dev := path.Device
	window := sim.Millisecond
	wf := mix.WriteFraction()
	// Offer 10× the theoretical peak so the device saturates.
	offered := dev.PeakGBs() * window.Nanoseconds() * 10
	served := dev.Serve(mem.Demand{
		ReadBytes:  offered * (1 - wf),
		WriteBytes: offered * wf,
	}, window)
	achieved := served.Total() / window.Nanoseconds()
	return BandwidthResult{
		AchievedGBs: achieved,
		Efficiency:  achieved / dev.PeakGBs(),
	}
}

// MixSweep measures loaded bandwidth at every Fig. 4a mix point.
func MixSweep(path *topo.Path) map[mem.MixPoint]BandwidthResult {
	out := make(map[mem.MixPoint]BandwidthResult, 4)
	for _, m := range mem.MixPoints() {
		out[m] = LoadedBandwidth(path, m)
	}
	return out
}
