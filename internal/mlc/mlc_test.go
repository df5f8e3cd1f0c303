package mlc

import (
	"math"
	"testing"

	"cxlmem/internal/mem"
	"cxlmem/internal/topo"
)

// TestFig5BufferLatency reproduces §4.3's headline numbers: in SNC mode a
// 32 MB random buffer averages ~41 ns from CXL-A (fits the 60 MB socket LLC)
// vs ~76.8 ns from local DDR (overflows the 15 MB node slices).
func TestFig5BufferLatency(t *testing.T) {
	cfg := topo.DefaultConfig() // SNC on
	const buf = 32 << 20
	// Separate systems so the two runs don't share cache state.
	sysD := topo.NewSystem(cfg)
	ddr := BufferLatencyOpt(sysD, sysD.DDRLocal, buf, 200000, 3, StreamOptions{})
	sysC := topo.NewSystem(cfg)
	cxl := BufferLatencyOpt(sysC, sysC.Path("CXL-A"), buf, 200000, 3, StreamOptions{})

	if cxl.Nanoseconds() >= ddr.Nanoseconds() {
		t.Fatalf("CXL-A buffer latency %.1f should beat DDR5-L %.1f (O6)", cxl.Nanoseconds(), ddr.Nanoseconds())
	}
	if got := cxl.Nanoseconds(); got < 30 || got > 55 {
		t.Errorf("CXL-A 32MB buffer latency = %.1f ns, paper ~41", got)
	}
	if got := ddr.Nanoseconds(); got < 62 || got > 92 {
		t.Errorf("DDR5-L 32MB buffer latency = %.1f ns, paper ~76.8", got)
	}
}

func TestLoadedBandwidthEfficiencyMatchesTable(t *testing.T) {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	for _, p := range sys.ComparisonPaths() {
		for _, m := range mem.MixPoints() {
			got := LoadedBandwidth(p, m)
			want := p.Device.Ctrl.MixEff[m]
			if math.Abs(got.Efficiency-want) > 1e-6 {
				t.Errorf("%s %v: efficiency %v, want %v", p.Name, m, got.Efficiency, want)
			}
			if gbs := got.AchievedGBs; math.Abs(gbs-want*p.Device.PeakGBs()) > 1e-6 {
				t.Errorf("%s %v: achieved %v GB/s inconsistent", p.Name, m, gbs)
			}
		}
	}
}

func TestMixSweepCoversAllPoints(t *testing.T) {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	sweep := MixSweep(sys.Path("CXL-A"))
	if len(sweep) != 4 {
		t.Fatalf("sweep has %d points", len(sweep))
	}
	// O4 shape: CXL-A's efficiency *rises* with writes; DDR5-R's falls.
	a := MixSweep(sys.Path("CXL-A"))
	r := MixSweep(sys.Path("DDR5-R"))
	if a[mem.RW21].Efficiency <= a[mem.AllRead].Efficiency {
		t.Error("CXL-A efficiency should rise from all-read to 2:1")
	}
	if r[mem.RW21].Efficiency >= r[mem.AllRead].Efficiency {
		t.Error("DDR5-R efficiency should fall from all-read to 2:1")
	}
}

func TestPanics(t *testing.T) {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	for name, fn := range map[string]func(){
		"idle steps":  func() { idleLatency(sys, sys.DDRLocal, 0, 1, 0) },
		"buf samples": func() { BufferLatencyOpt(sys, sys.DDRLocal, 1<<20, 0, 1, StreamOptions{}) },
		"buf size":    func() { BufferLatencyOpt(sys, sys.DDRLocal, 1, 10, 1, StreamOptions{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
