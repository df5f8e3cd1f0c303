package experiments

import (
	"math"
	"runtime"
	"testing"

	"cxlmem/internal/mem"
	"cxlmem/internal/topo"
)

func TestInstrLatencyMedianRejectsOutliers(t *testing.T) {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	p := sys.Path("CXL-A")
	got := memoLatency(p, mem.Load, memoTrials).Nanoseconds()
	want := p.ParallelLatency(mem.Load).Nanoseconds()
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("median latency %.1f ns deviates from ideal %.1f ns", got, want)
	}
}

func TestInstrLatencyDeterministic(t *testing.T) {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	p := sys.Path("DDR5-R")
	a := memoLatency(p, mem.Store, memoTrials)
	b := memoLatency(p, mem.Store, memoTrials)
	if a != b {
		t.Errorf("same-seed measurements differ: %v vs %v", a, b)
	}
}

func TestFig3MemoRelations(t *testing.T) {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	lat := func(name string, ty mem.InstrType) float64 {
		return memoLatency(sys.Path(name), ty, memoTrials).Nanoseconds()
	}
	r := lat("DDR5-R", mem.Load)
	a := lat("CXL-A", mem.Load)
	b := lat("CXL-B", mem.Load)
	c := lat("CXL-C", mem.Load)
	if ratio := a / r; math.Abs(ratio-1.35) > 0.12 {
		t.Errorf("CXL-A/DDR5-R ld = %.2f, want ~1.35 (§4.1)", ratio)
	}
	if ratio := b / r; math.Abs(ratio-2.0) > 0.3 {
		t.Errorf("CXL-B/DDR5-R ld = %.2f, want ~2 (O2)", ratio)
	}
	if ratio := c / r; math.Abs(ratio-3.0) > 0.4 {
		t.Errorf("CXL-C/DDR5-R ld = %.2f, want ~3 (O2)", ratio)
	}
	// nt-st: CXL-A ~25% below DDR5-R.
	ntA := lat("CXL-A", mem.NTStore)
	ntR := lat("DDR5-R", mem.NTStore)
	if red := 1 - ntA/ntR; red < 0.12 || red > 0.38 {
		t.Errorf("nt-st reduction CXL-A vs DDR5-R = %.2f, want ~0.25", red)
	}
}

func TestInstrLatencyPanicsOnBadTrials(t *testing.T) {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	memoLatency(sys.DDRLocal, mem.Load, 0)
}

// TestMicrobenchFindingsAllPlatforms checks the §4 microbenchmark findings
// as properties of every registered platform and every device path on it:
// stores pay write-allocate (memo st > ld), nt-st skips it (nt-st < st), a
// parallel burst never costs more than a dependent load, CXL memory is never
// faster than local DDR at idle, and no device streams stores more
// efficiently than loads (Fig. 4b).
func TestMicrobenchFindingsAllPlatforms(t *testing.T) {
	for _, name := range topo.PlatformNames() {
		sys, err := topo.BuildPlatform(name)
		if err != nil {
			t.Fatal(err)
		}
		ddr := sys.DDRLocal.SerialLatency(mem.Load)
		for _, p := range sys.Paths() {
			ld := memoLatency(p, mem.Load, memoTrials)
			st := memoLatency(p, mem.Store, memoTrials)
			ntst := memoLatency(p, mem.NTStore, memoTrials)
			serial := p.SerialLatency(mem.Load)
			if st <= ld {
				t.Errorf("%s/%s: memo st %v not above ld %v", name, p.Name, st, ld)
			}
			if ntst >= st {
				t.Errorf("%s/%s: memo nt-st %v not below st %v", name, p.Name, ntst, st)
			}
			if ld > serial {
				t.Errorf("%s/%s: memo ld %v exceeds serial load %v", name, p.Name, ld, serial)
			}
			if p.IsCXL && serial < ddr {
				t.Errorf("%s/%s: serial load %v beats DDR5-L %v", name, p.Name, serial, ddr)
			}
			if es, el := p.Device.EffInstr(mem.Store), p.Device.EffInstr(mem.Load); es > el {
				t.Errorf("%s/%s: st efficiency %.3f exceeds ld %.3f", name, p.Name, es, el)
			}
		}
	}
}

// TestWarmFig5AllocatesNoArena pins the warm-hit cost of fig5: once a run
// has left its warm states in the warm-state cache and its arenas on the
// hierarchy free list, a repeat run (direct Run, dataset memo bypassed)
// restores into recycled arenas and allocates no slab arena — a single SPR
// arena is ~17.7 MB, so the 4 MB bound trips on the first fresh one.
func TestWarmFig5AllocatesNoArena(t *testing.T) {
	e, err := Get("fig5")
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Quick = true
	e.Run(o) // priming run: warm states cached, arenas released
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Run(o)
	runtime.ReadMemStats(&after)
	const bound = 4 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("warm fig5 run allocated %.2f MB, bound %.0f MB", float64(got)/(1<<20), float64(bound)/(1<<20))
	}
}
