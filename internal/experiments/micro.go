package experiments

import (
	"sort"

	"cxlmem/internal/mem"
	"cxlmem/internal/mlc"
	"cxlmem/internal/results"
	"cxlmem/internal/sim"
	"cxlmem/internal/topo"
)

func runTable1(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	d := newDataset(o, "table1", "System configurations",
		col("Device", ""), col("CXL IP", ""), col("Memory technology", ""),
		col("Channels", ""), col("Peak GB/s", "GB/s"), col("Capacity GiB", "GiB"))
	for _, p := range sys.Paths() {
		dev := p.Device
		d.AddRow(results.Str(dev.Name), results.Str(dev.Ctrl.Kind.String()), results.Str(dev.Tech.Name),
			results.Int(int64(dev.Channels)), results.Num(dev.PeakGBs(), 1),
			results.Int(dev.CapacityBytes>>30))
	}
	d.AddNote("2x Intel Xeon 6430 (SPR) model: 32 cores, 60 MB LLC, SNC-4 capable, 2.1 GHz")
	return d
}

// The paper's memo microbenchmark (§3.2) measures random parallel accesses
// per instruction type, where Intel MLC serializes them:
//
//	for each trial: clflush + mfence; rdtsc; 16 independent accesses
//	(ld / nt-ld / st / nt-st) to random addresses; fence; rdtsc.
//
// The per-access latency is the bracketed time divided by 16, and the
// reported value is the median over many trials, which filters TLB misses
// and OS noise. In the simulator the flush makes every access pay the memory
// path, so the measurement converges on Path.ParallelLatency; the trial and
// median machinery is kept so the measurement semantics match the paper's.
const (
	// memoTrials is the paper's trial count; quick mode scales it.
	memoTrials = 10000
	// memoJitter is the relative half-width of each trial's OS/TLB noise.
	memoJitter = 0.05
	// memoSeed drives the jitter stream.
	memoSeed = 7
)

// memoLatency measures the median per-access latency of trials bursts of
// random parallel accesses of type t to the device behind path.
func memoLatency(path *topo.Path, t mem.InstrType, trials int) sim.Time {
	if trials <= 0 {
		panic("memo: non-positive trial count")
	}
	ideal := float64(path.ParallelLatency(t))
	rng := sim.NewRng(memoSeed)
	samples := make([]float64, trials)
	for i := range samples {
		// Mostly small symmetric jitter; occasionally a large positive
		// outlier (a TLB miss or an OS tick), which the median rejects.
		v := ideal * (1 + memoJitter*(2*rng.Float64()-1))
		if rng.Float64() < 0.01 {
			v *= 1 + 4*rng.Float64()
		}
		samples[i] = v
	}
	sort.Float64s(samples)
	return sim.Time(samples[len(samples)/2])
}

func runFig3(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	trials := o.scale(memoTrials)

	// Baselines: DDR5-L measured by each tool.
	mlcBase := sys.DDRLocal.SerialLatency(mem.Load).Nanoseconds()
	memoBase := map[mem.InstrType]float64{}
	for _, ty := range mem.InstrTypes() {
		memoBase[ty] = memoLatency(sys.DDRLocal, ty, trials).Nanoseconds()
	}

	d := newDataset(o, "fig3", "Random access latency normalized to DDR5-L (per measurement tool)",
		col("Device", ""), col("MLC", "x DDR5-L"), col("memo ld", "x DDR5-L"),
		col("memo nt-ld", "x DDR5-L"), col("memo st", "x DDR5-L"), col("memo nt-st", "x DDR5-L"))
	paths := sys.ComparisonPaths()
	rows := sweepPoints(o, len(paths), func(i int) []results.Cell {
		p := paths[i]
		row := []results.Cell{results.Str(p.Name), results.Num(p.SerialLatency(mem.Load).Nanoseconds()/mlcBase, 2)}
		for _, ty := range mem.InstrTypes() {
			v := memoLatency(p, ty, trials).Nanoseconds()
			row = append(row, results.Num(v/memoBase[ty], 2))
		}
		return row
	})
	for _, row := range rows {
		d.AddRow(row...)
	}
	d.AddNote("absolute DDR5-L: MLC %.1f ns; memo ld %.1f ns", mlcBase, memoBase[mem.Load])
	d.AddNote("paper: memo cuts DDR5-R latency 76%% and CXL-A 79%% vs MLC; CXL-A ld ~1.35x DDR5-R; CXL-B ~2x, CXL-C ~3x")
	return d
}

func runFig4a(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	d := newDataset(o, "fig4a", "MLC bandwidth efficiency (fraction of theoretical peak)",
		col("Device", ""), col("All read", "%"), col("3:1-RW", "%"), col("2:1-RW", "%"), col("1:1-RW", "%"))
	paths := sys.ComparisonPaths()
	rows := sweepPoints(o, len(paths), func(i int) []results.Cell {
		sweep := mlc.MixSweep(paths[i])
		row := []results.Cell{results.Str(paths[i].Name)}
		for _, m := range mem.MixPoints() {
			row = append(row, results.Pct(sweep[m].Efficiency))
		}
		return row
	})
	for _, row := range rows {
		d.AddRow(row...)
	}
	d.AddNote("paper O4: all-read 70/46/47/20%%; CXL-A overtakes DDR5-R as the write share grows (+23 pts at 2:1)")
	return d
}

func runFig4b(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	d := newDataset(o, "fig4b", "memo bandwidth efficiency per instruction type",
		col("Device", ""), col("ld", "%"), col("nt-ld", "%"), col("st", "%"), col("nt-st", "%"))
	paths := sys.ComparisonPaths()
	rows := sweepPoints(o, len(paths), func(i int) []results.Cell {
		row := []results.Cell{results.Str(paths[i].Name)}
		for _, ty := range mem.InstrTypes() {
			row = append(row, results.Pct(paths[i].Device.EffInstr(ty)))
		}
		return row
	})
	for _, row := range rows {
		d.AddRow(row...)
	}
	d.AddNote("paper O5: st drops vs ld by 74/31/59/15%%; CXL-A st beats DDR5-R st by ~12 pts; nt-st gap shrinks to ~6 pts")
	return d
}

func runFig5(o Options) *results.Dataset {
	const buf = 32 << 20
	samples := o.scale(200000)
	// Each measurement mutates its system's cache state, so every sweep
	// point builds a private System, and hands its arena on when done.
	devices := []string{"DDR5-L", "CXL-A"}
	lats := sweepPoints(o, len(devices), func(i int) float64 {
		sys := topo.NewSystem(topo.DefaultConfig()) // SNC on
		defer sys.Hier.Release()
		return o.bufferLatencyNs(sys, sys.Path(devices[i]), buf, samples)
	})
	ddr, cxl := lats[0], lats[1]

	d := newDataset(o, "fig5", "SNC mode: average latency of a 32 MB random buffer",
		col("Placement", ""), col("Avg latency (ns)", "ns"), col("Effective LLC", ""))
	d.AddRow(results.Str("DDR5-L (SNC-confined)"), results.Num(ddr, 1), results.Str("15 MB (node slices)"))
	d.AddRow(results.Str("CXL-A (isolation broken)"), results.Num(cxl, 1), results.Str("60 MB (all slices)"))
	d.AddNote("paper §4.3: 76.8 ns vs 41 ns — CXL-homed data enjoys 2-4x the LLC in SNC mode (O6)")
	return d
}
