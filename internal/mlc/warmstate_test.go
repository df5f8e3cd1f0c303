package mlc

import (
	"context"
	"testing"
	"time"

	"cxlmem/internal/memo"
	"cxlmem/internal/topo"
)

// ConfigureWarmStates resizes the warm-state cache's entry budget: positive
// bounds it, 0 makes it unbounded, negative disables warm-state caching
// entirely (every measurement warms inline). Resident entries above a
// lowered budget are evicted immediately.
func ConfigureWarmStates(maxEntries int) {
	warmStatesOff.Store(maxEntries < 0)
	if maxEntries >= 0 {
		warmStates.Configure(memo.CacheConfig{MaxEntries: maxEntries})
	}
}

// coldBuffer measures one operating point with warm-state caching disabled —
// the reference cold path — restoring the previous cache configuration
// afterwards.
func coldBuffer(cfg topo.Config, device string, bufBytes int64, samples int, seed uint64) float64 {
	ConfigureWarmStates(-1)
	defer ConfigureWarmStates(DefaultWarmStateEntries)
	sys := topo.NewSystem(cfg)
	return BufferLatencyOpt(sys, sys.Path(device), bufBytes, samples, seed, StreamOptions{}).Nanoseconds()
}

// warmPoint measures the same operating point through the warm-state cache
// on a fresh system.
func warmPoint(cfg topo.Config, device string, bufBytes int64, samples int, seed uint64) float64 {
	sys := topo.NewSystem(cfg)
	return BufferLatencyOpt(sys, sys.Path(device), bufBytes, samples, seed, StreamOptions{}).Nanoseconds()
}

// TestWarmStateByteIdentical pins the warm-state cache's core contract for
// every fig5/ablation-llc operating point: the first (miss, memoizing) run
// and the second (hit, snapshot-restoring) run both produce exactly the
// cold-path value.
func TestWarmStateByteIdentical(t *testing.T) {
	noBreak := topo.DefaultConfig()
	noBreak.CXLBreaksSNCIsolation = false
	points := []struct {
		name   string
		cfg    topo.Config
		device string
		buf    int64
	}{
		// The fig5 rows; CXL-A at the experiments' real 32 MB buffer (it is
		// also ablation-llc's isolation-broken row — the shared key).
		{"fig5-ddr", topo.DefaultConfig(), "DDR5-L", 4 << 20},
		{"fig5-cxl-32mb", topo.DefaultConfig(), "CXL-A", 32 << 20},
		// ablation-llc's isolation-kept row.
		{"ablation-nobreak", noBreak, "CXL-A", 4 << 20},
	}
	const samples = 2000
	for i, p := range points {
		seed := uint64(9000 + i)
		cold := coldBuffer(p.cfg, p.device, p.buf, samples, seed)
		before := WarmStateStats()
		miss := warmPoint(p.cfg, p.device, p.buf, samples, seed)
		hit := warmPoint(p.cfg, p.device, p.buf, samples, seed)
		after := WarmStateStats()
		if miss != cold || hit != cold {
			t.Errorf("%s: cold %v, miss-run %v, hit-run %v — want all identical",
				p.name, cold, miss, hit)
		}
		if after.Hits-before.Hits < 1 {
			t.Errorf("%s: no warm-state hit recorded (hits %d -> %d)",
				p.name, before.Hits, after.Hits)
		}
	}
}

// TestWarmStateSharedKey pins that fig5's CXL-A point and ablation-llc's
// isolation-broken point memoize under one key: both build DefaultConfig
// systems and measure CXL-A with the same seed, so the second experiment
// restores the first one's warmup.
func TestWarmStateSharedKey(t *testing.T) {
	sysFig5 := topo.NewSystem(topo.DefaultConfig())
	ablCfg := topo.DefaultConfig()
	ablCfg.CXLBreaksSNCIsolation = true // ablation-llc's explicit broken row
	sysAbl := topo.NewSystem(ablCfg)
	const buf, seed = 2 << 20, uint64(9100)
	homeFig := sysFig5.HomeFor(sysFig5.Path("CXL-A"), 0)
	homeAbl := sysAbl.HomeFor(sysAbl.Path("CXL-A"), 0)
	k1 := warmKey(sysFig5.Hier.Config(), homeFig, buf/64, seed)
	k2 := warmKey(sysAbl.Hier.Config(), homeAbl, buf/64, seed)
	if k1 != k2 {
		t.Fatalf("fig5 and ablation-llc keys differ:\n%s\n%s", k1, k2)
	}

	before := WarmStateStats()
	a := BufferLatencyOpt(sysFig5, sysFig5.Path("CXL-A"), buf, 1000, seed, StreamOptions{}).Nanoseconds()
	b := BufferLatencyOpt(sysAbl, sysAbl.Path("CXL-A"), buf, 1000, seed, StreamOptions{}).Nanoseconds()
	after := WarmStateStats()
	if a != b {
		t.Errorf("shared-key measurements diverge: %v vs %v", a, b)
	}
	if after.Hits-before.Hits < 1 {
		t.Errorf("second experiment did not hit the shared key (hits %d -> %d)",
			before.Hits, after.Hits)
	}
}

// TestWarmStateEvictionPressure runs five distinct operating points through
// a four-entry cache: entries must evict, and every re-measurement — hit or
// recompute — must still equal its cold reference.
func TestWarmStateEvictionPressure(t *testing.T) {
	ConfigureWarmStates(4)
	defer ConfigureWarmStates(DefaultWarmStateEntries)
	const buf, samples = 256 << 10, 500
	cold := make([]float64, 5)
	for i := range cold {
		cold[i] = coldBuffer(topo.DefaultConfig(), "DDR5-L", buf, samples, uint64(9200+i))
		// coldBuffer resets the budget to the default; re-pin the pressure.
		ConfigureWarmStates(4)
	}
	before := WarmStateStats()
	for round := 0; round < 2; round++ {
		for i := range cold {
			got := warmPoint(topo.DefaultConfig(), "DDR5-L", buf, samples, uint64(9200+i))
			if got != cold[i] {
				t.Errorf("round %d point %d: %v, want cold %v", round, i, got, cold[i])
			}
		}
	}
	after := WarmStateStats()
	if after.Size > 4 {
		t.Errorf("cache size %d exceeds the 4-entry budget", after.Size)
	}
	if after.Evictions == before.Evictions {
		t.Error("five keys through a four-entry cache evicted nothing")
	}
}

// TestWarmStateCanceledNeverCached pins cancellation hygiene: a warmup whose
// context dies mid-stream unwinds as a panic carrying the context error and
// leaves no cache entry, and the next (live) measurement of the same point
// still produces the cold value.
func TestWarmStateCanceledNeverCached(t *testing.T) {
	// 8 MB buffer: the warmup spans multiple address chunks, so the
	// between-chunk context check must fire before it can complete.
	const buf, samples, seed = 8 << 20, 1000, uint64(9300)
	cold := coldBuffer(topo.DefaultConfig(), "DDR5-L", buf, samples, seed)

	baseline := WarmStateStats().Size
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := topo.NewSystem(topo.DefaultConfig())
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("canceled warmup did not panic")
			} else if err, ok := r.(error); !ok || !canceled(err) {
				t.Errorf("canceled warmup panicked %v, want a context error", r)
			}
		}()
		BufferLatencyOpt(sys, sys.Path("DDR5-L"), buf, samples, seed, StreamOptions{Ctx: ctx})
	}()

	// The orphaned computation notices the cancellation at its next chunk
	// boundary and its entry is dropped, never retained.
	deadline := time.Now().Add(5 * time.Second)
	for WarmStateStats().InFlight > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if s := WarmStateStats(); s.InFlight > 0 {
		t.Fatalf("canceled warmup still in flight after 5s: %+v", s)
	}
	if s := WarmStateStats(); s.Size > baseline {
		t.Errorf("canceled warmup was retained: size %d > baseline %d", s.Size, baseline)
	}

	if got := warmPoint(topo.DefaultConfig(), "DDR5-L", buf, samples, seed); got != cold {
		t.Errorf("post-cancellation measurement %v, want cold %v", got, cold)
	}
}
