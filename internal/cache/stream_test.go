package cache

import (
	"testing"

	"cxlmem/internal/sim"
)

// TestReadStreamMatchesAccess pins the stream loop's core contract: for any
// address stream, ReadStream leaves the hierarchy in exactly the state the
// scalar oracle's Access loop would, and reports the same per-level counts —
// across homes, SNC modes, mask and modulo slice routes, and hierarchies
// pre-seeded with dirty lines and cross-core state.
func TestReadStreamMatchesAccess(t *testing.T) {
	for _, tc := range streamCases() {
		t.Run(tc.name, func(t *testing.T) {
			ha := NewHierarchy(tc.cfg)
			hb := NewHierarchy(tc.cfg)
			tc.checkRoute(t, ha)
			seedHierarchy(ha)
			seedHierarchy(hb)

			rng := sim.NewRng(7)
			addrs := make([]uint64, 5000)
			for i := range addrs {
				addrs[i] = uint64(rng.Intn(1<<14)) * LineBytes
			}

			var want LevelCounts
			for _, a := range addrs {
				want[ha.Access(2, a, tc.home, false)]++
			}
			var got LevelCounts
			hb.ReadStream(2, addrs, tc.home, &got)

			if got != want {
				t.Fatalf("level counts diverge: ReadStream %v vs Access %v", got, want)
			}
			requireHierEqual(t, ha, hb)
			// The post-state must behave identically too: replay a fresh
			// probe stream through both and compare outcomes level by level.
			probe := sim.NewRng(13)
			for i := 0; i < 3000; i++ {
				a := uint64(probe.Intn(1<<14)) * LineBytes
				la := ha.Access(2, a, tc.home, false)
				lb := hb.Access(2, a, tc.home, false)
				if la != lb {
					t.Fatalf("post-state diverges at probe %d (addr %#x): %v vs %v", i, a, lb, la)
				}
			}
		})
	}
}

// TestReadStreamPanicsOnBadCore matches Access's contract.
func TestReadStreamPanicsOnBadCore(t *testing.T) {
	h := NewHierarchy(SPRHierConfig(1))
	defer func() {
		if recover() == nil {
			t.Error("out-of-range core should panic")
		}
	}()
	var c LevelCounts
	h.ReadStream(99, []uint64{0}, Home{}, &c)
}

// TestFingerprintConsistency drives a randomized op mix through one Cache and
// verifies the fingerprint sidecar stays a faithful mirror of the words —
// every resident line must remain findable, every absent line a miss.
func TestFingerprintConsistency(t *testing.T) {
	c := NewCache(8<<10, 8)
	rng := sim.NewRng(3)
	resident := map[uint64]bool{}
	const span = 1 << 12 // lines; small enough to force heavy conflicts
	for i := 0; i < 200000; i++ {
		line := uint64(rng.Intn(span))
		addr := line * LineBytes
		switch rng.Intn(4) {
		case 0:
			if v, ev := c.Insert(addr, Home{}, rng.Intn(2) == 0); ev {
				delete(resident, v.Addr/LineBytes)
			}
			resident[line] = true
		case 1:
			got := c.Lookup(addr, false)
			if got != resident[line] {
				t.Fatalf("op %d: Lookup(%#x) = %v, want %v", i, addr, got, resident[line])
			}
		case 2:
			found, _ := c.Invalidate(addr)
			if found != resident[line] {
				t.Fatalf("op %d: Invalidate(%#x) = %v, want %v", i, addr, found, resident[line])
			}
			delete(resident, line)
		case 3:
			found, _ := c.ProbeRemove(addr)
			if found != resident[line] {
				t.Fatalf("op %d: ProbeRemove(%#x) = %v, want %v", i, addr, found, resident[line])
			}
			delete(resident, line)
		}
	}
	if c.Occupancy() != len(resident) {
		t.Fatalf("occupancy %d, want %d", c.Occupancy(), len(resident))
	}
}

// TestPackWordNodeLimit pins the loud failure mode for nodes beyond the
// packed range.
func TestPackWordNodeLimit(t *testing.T) {
	c := NewCache(4096, 4)
	defer func() {
		if recover() == nil {
			t.Error("node beyond MaxHomeNode should panic")
		}
	}()
	c.Insert(0, Home{Kind: HomeRemote, Node: MaxHomeNode + 1}, false)
}

// TestNewCacheWaysLimit pins the loud failure mode for associativities the
// fingerprint sidecar cannot cover.
func TestNewCacheWaysLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ways beyond MaxWays should panic")
		}
	}()
	NewCache(LineBytes*32, MaxWays+1)
}
