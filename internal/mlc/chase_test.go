package mlc

import (
	"testing"

	"cxlmem/internal/cache"
	"cxlmem/internal/mem"
	"cxlmem/internal/sim"
	"cxlmem/internal/topo"
)

// idleLatency is Intel MLC's idle-latency measurement run through the cache
// hierarchy: the serialized (pointer-chase) load latency to the device
// behind path. The chase follows a shuffled single-cycle permutation
// (Sattolo's algorithm, deterministic from seed) over a buffer twice the
// LLC: each load's address is the pointer the previous load returned —
// MLC's shuffled-pointer buffer — so in steady state essentially every
// access misses the hierarchy and pays the full serial path latency. The
// chase is fully dependent, but its address sequence is fixed by the
// permutation, so it is generated ahead in chunks and batched through the
// sharded engine with the given worker count.
//
// fig3's MLC column uses the closed form Path.SerialLatency; this chase is
// the simulated reference that pins it.
func idleLatency(sys *topo.System, path *topo.Path, steps int, seed uint64, workers int) sim.Time {
	if steps <= 0 {
		panic("mlc: non-positive step count")
	}
	hier := sys.Hier
	home := sys.HomeFor(path, 0)
	bufBytes := int64(2) * int64(hier.Config().Cores) * hier.Config().LLCSliceBytes
	lines := int(bufBytes / cache.LineBytes)

	// Build the chase: next[i] is the line the load of line i points at.
	// The whole buffer is shuffled into a single cycle (Sattolo), so the
	// chase can never trap itself in a short cache-resident loop.
	rng := sim.NewRng(seed)
	next := make([]uint32, lines)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := lines - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}

	var counts cache.LevelCounts
	chunk := make([]uint64, min(steps, chunkLines))
	var cur uint32
	for remaining := steps; remaining > 0; {
		n := min(remaining, chunkLines)
		b := chunk[:n]
		for i := range b {
			b[i] = uint64(cur) * cache.LineBytes
			cur = next[cur]
		}
		hier.ReadStreamSharded(0, b, home, &counts, workers)
		remaining -= n
	}
	return streamTotal(path, &counts) / sim.Time(steps)
}

// table1Devices are the five Table-1 device paths, in fig3's order.
var table1Devices = []string{"DDR5-L", "DDR5-R", "CXL-A", "CXL-B", "CXL-C"}

func TestIdleLatencyApproachesSerialPath(t *testing.T) {
	for _, name := range table1Devices {
		// Fresh system per device: a shared hierarchy would replay the same
		// pseudo-random address sequence into warm caches.
		sys := topo.NewSystem(topo.MicrobenchConfig())
		p := sys.Path(name)
		got := idleLatency(sys, p, 20000, 1, 0).Nanoseconds()
		want := p.SerialLatency(mem.Load).Nanoseconds()
		// A large random buffer still hits caches occasionally; the
		// average should be within 15% of the pure memory latency and
		// never exceed it.
		if got > want || got < 0.85*want {
			t.Errorf("%s: idle latency %.1f ns vs serial %.1f ns", p.Name, got, want)
		}
	}
}

func TestIdleLatencyOrderingMatchesFig3(t *testing.T) {
	measure := func(name string) float64 {
		sys := topo.NewSystem(topo.MicrobenchConfig())
		return idleLatency(sys, sys.Path(name), 10000, 2, 0).Nanoseconds()
	}
	l := measure("DDR5-L")
	r := measure("DDR5-R")
	a := measure("CXL-A")
	b := measure("CXL-B")
	c := measure("CXL-C")
	if !(l < r && r < a && a < b && b < c) {
		t.Errorf("MLC ordering broken: L=%v R=%v A=%v B=%v C=%v", l, r, a, b, c)
	}
}

// TestIdleLatencyIsDependentChase pins the pointer-chase semantics on every
// Table-1 device: with a chase buffer twice the LLC and fewer steps than
// buffer lines, every access is a compulsory miss, so the idle latency
// equals the serial path latency exactly — an independent-random loop would
// hit warm lines and fall below. This is the simulated reference for each
// cell of fig3's MLC column.
func TestIdleLatencyIsDependentChase(t *testing.T) {
	for _, name := range table1Devices {
		sys := topo.NewSystem(topo.MicrobenchConfig())
		p := sys.Path(name)
		got := idleLatency(sys, p, 20000, 1, 0)
		if want := p.SerialLatency(mem.Load); got != want {
			t.Errorf("%s: chase idle latency %v, want exactly serial %v", name, got, want)
		}
	}
}

// TestIdleLatencyWorkersMatchSerial pins the chase's worker-count
// invariance: with a buffer twice the LLC and fewer steps than lines every
// access is a compulsory miss, so at any worker count the measured latency
// is exactly the serial path latency.
func TestIdleLatencyWorkersMatchSerial(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 4} {
		sys := topo.NewSystem(topo.MicrobenchConfig())
		p := sys.Path("CXL-A")
		got := idleLatency(sys, p, 20000, 1, workers)
		if want := p.SerialLatency(mem.Load); got != want {
			t.Errorf("workers=%d: latency %v, want exactly serial %v", workers, got, want)
		}
	}
}
