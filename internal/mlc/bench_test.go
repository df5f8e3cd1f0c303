package mlc

// End-to-end benchmarks of the streamed measurement loops — the code paths
// that dominate fig5 and ablation-llc. Together with internal/cache's
// per-operation benchmarks these give the engine a tracked baseline.

import (
	"testing"

	"cxlmem/internal/topo"
)

// benchBuffer regenerates one 32 MB buffer-latency measurement (the fig5
// inner loop) at the quick-mode sample count.
func benchBuffer(b *testing.B, device string) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sys := topo.NewSystem(topo.DefaultConfig())
		sink += BufferLatencyOpt(sys, sys.Path(device), 32<<20, 20000, 3, StreamOptions{}).Nanoseconds()
	}
	if sink == 0 {
		b.Fatal("zero latency")
	}
}

func BenchmarkBufferLatencyDDR(b *testing.B) { benchBuffer(b, "DDR5-L") }
func BenchmarkBufferLatencyCXL(b *testing.B) { benchBuffer(b, "CXL-A") }
