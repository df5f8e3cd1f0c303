package cache

// Stream-loop benchmarks: the per-access cost of the one loop the mlc
// measurement paths run, on three working-set shapes, so the packed tag
// engine has its own tracked baseline (like internal/numa's allocator
// benchmarks). Run with
//
//	go test ./internal/cache -run '^$' -bench . -benchmem

import (
	"testing"

	"cxlmem/internal/sim"
)

// benchHierarchy streams n uniform random line addresses over bufLines
// through a fresh SNC-4 hierarchy and reports ns per simulated access.
func benchHierarchy(b *testing.B, home Home, bufLines int64) {
	h := NewHierarchy(SPRHierConfig(4))
	rng := sim.NewRng(7)
	batch := make([]uint64, 4096)
	var counts LevelCounts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = uint64(rng.Int63n(bufLines)) * LineBytes
		}
		h.ReadStream(0, batch, home, &counts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/access")
}

// BenchmarkAccessL1L2Resident: the working set fits the private caches, so
// the stream exercises the L1/L2 hit paths.
func BenchmarkAccessL1L2Resident(b *testing.B) {
	benchHierarchy(b, Home{Kind: HomeLocalDDR}, 4096) // 256 KB buffer
}

// BenchmarkAccessLLCPromote: the working set overflows L2 but fits the
// socket LLC for a CXL home, so the stream is dominated by the LLC
// probe-remove-promote path.
func BenchmarkAccessLLCPromote(b *testing.B) {
	benchHierarchy(b, Home{Kind: HomeRemote}, 1<<18) // 16 MB buffer
}

// BenchmarkAccessMemoryMiss: a DDR-homed working set larger than the node's
// slices — the fig5 shape, heavy on full misses with victim spills.
func BenchmarkAccessMemoryMiss(b *testing.B) {
	benchHierarchy(b, Home{Kind: HomeLocalDDR}, 1<<19) // 32 MB buffer
}
