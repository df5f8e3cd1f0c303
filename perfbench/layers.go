package main

import (
	"fmt"
	"reflect"

	"cxlmem/internal/cache"
	"cxlmem/internal/experiments"
	"cxlmem/internal/mlc"
	"cxlmem/internal/results"
	"cxlmem/internal/sim"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads"
	"cxlmem/internal/workloads/tpptimeline"
)

// fig5's operating points, replayed here call by call: a 32 MB buffer, the
// daemon-default (full) and quick sample counts, and the driver's seed
// offset. The seed-1 check and every replay fail if these drift from the
// driver.
const (
	fig5Buffer     = 32 << 20
	fullSamples    = 200000
	quickSamples   = fullSamples / 10
	fig5SeedOffset = 3
	cxlDevice      = "CXL-A"
)

var fig5Devices = []string{"DDR5-L", cxlDevice}

// quickOptions are the golden corpus's options: quick mode, seed 1.
func quickOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Quick = true
	return o
}

// timelineConfig is the tpp-timeline experiment's model configuration at
// seed (its workload's default cell), rebuilt so a replay can call
// tpptimeline.Run without the process-wide trace tap. seed 0 keeps the
// calibrated seed, as the experiment does at its default seed 1.
func timelineConfig(seed uint64, quick bool) (tpptimeline.Config, string, error) {
	w, err := workloads.Get("tpp-timeline")
	if err != nil {
		return tpptimeline.Config{}, "", err
	}
	cfg := w.DefaultConfig()
	tc := tpptimeline.DefaultConfig()
	if quick {
		tc = tc.Quick()
	}
	tc.FarPercent = cfg.CXLPercent
	tc.BaseQPS = cfg.TargetQPS
	tc.BurstQPS = 6 * cfg.TargetQPS
	tc.Epochs = cfg.Ops
	if seed != 0 {
		tc.Seed = seed
	}
	return tc, cfg.Device, tc.Validate()
}

func newSystem() *topo.System { return topo.NewSystem(topo.DefaultConfig()) }

// matchFig5 checks that a directly measured buffer latency of fig5's sweep
// point k equals the dataset's cell.
func matchFig5(d *results.Dataset, k int, got sim.Time) error {
	if want := d.Rows[k][1].Float; got.Nanoseconds() != want {
		return fmt.Errorf("fig5 seed %d: %s buffer latency %v ns, dataset cell %v ns", d.Prov.Seed, fig5Devices[k], got.Nanoseconds(), want)
	}
	return nil
}

// matchTimeline checks that a direct timeline run reproduces every cell of
// a tpp-timeline dataset.
func matchTimeline(d *results.Dataset, r tpptimeline.Result) error {
	if len(r.Epochs) != len(d.Rows) {
		return fmt.Errorf("tpp-timeline seed %d: %d epochs, dataset has %d rows", d.Prov.Seed, len(r.Epochs), len(d.Rows))
	}
	for i, es := range r.Epochs {
		got := []float64{float64(es.Index), es.Start.Milliseconds(), float64(es.LocalPages), float64(es.FarPages),
			float64(es.Promotions), float64(es.Demotions), es.MigrationsPerSec, float64(es.Accesses), es.P99, es.Mean}
		for j, cell := range d.Rows[i] {
			if want, _ := cell.Value(); got[j] != want {
				return fmt.Errorf("tpp-timeline seed %d: epoch %d column %q is %v, dataset cell %v", d.Prov.Seed, i, d.Columns[j].Name, got[j], want)
			}
		}
	}
	return nil
}

// checkSeed1 proves the replays measure the same work as the experiments:
// at the golden seed, direct mlc.BufferLatencyOpt and tpptimeline.Run
// calls must reproduce every cell of the fig5 and tpp-timeline datasets.
func checkSeed1() error {
	fig5, err := experiments.RunDataset("fig5", quickOptions())
	if err != nil {
		return err
	}
	for k, dev := range fig5Devices {
		sys := newSystem()
		got := mlc.BufferLatencyOpt(sys, sys.Path(dev), fig5Buffer, quickSamples, goldenSeed+fig5SeedOffset, mlc.StreamOptions{})
		if err := matchFig5(fig5, k, got); err != nil {
			return fmt.Errorf("seed-1 check: %w", err)
		}
	}
	tl, err := experiments.RunDataset("tpp-timeline", quickOptions())
	if err != nil {
		return err
	}
	tc, dev, err := timelineConfig(0, true)
	if err != nil {
		return err
	}
	if err := matchTimeline(tl, tpptimeline.Run(newSystem(), tc, dev)); err != nil {
		return fmt.Errorf("seed-1 check: %w", err)
	}
	return nil
}

// --- replays -------------------------------------------------------------------

// replayFig5 is one fig5 op layer by layer: Experiment.Run at o and its
// emission (the op's own work, bypassing HTTP and the memo), then each
// sweep point rebuilt and measured again directly, a warm-state hit that
// must reproduce the run's cell. With coldSeed set it also measures the
// CXL-A point under that unwarmed seed (a warm-state miss: warmup and
// capture). Last, the cache layer's calls on the CXL-A point: capture,
// materialize, restore and the measurement stream's replay.
func (b *bench) replayFig5(o experiments.Options, format string, coldSeed uint64, i int64, tr *tracer, root int) error {
	var d *results.Dataset
	tr.do("experiments.run.fig5", root, i, func() (int64, error) { d = b.fig5.Run(o); return 0, nil })
	var text string
	if _, err := tr.do("results.emit."+format, root, i, func() (n int64, err error) {
		text, err = results.Emit(d, format)
		return int64(len(text)), err
	}); err != nil {
		return err
	}
	if format == "text" && text != b.fig5Golden {
		return fmt.Errorf("fig5 replay %d: text differs from fig5.txt", i)
	}
	samples := fullSamples
	if o.Quick {
		samples = quickSamples
	}
	measure := func(name string, seed uint64, dev string) (*topo.System, sim.Time) {
		var sys *topo.System
		tr.do("topo.build", root, i, func() (int64, error) { sys = newSystem(); return 0, nil })
		var v sim.Time
		tr.do(name, root, i, func() (int64, error) {
			v = mlc.BufferLatencyOpt(sys, sys.Path(dev), fig5Buffer, samples, seed, mlc.StreamOptions{})
			return int64(samples), nil
		})
		return sys, v
	}
	var src *topo.System
	for k, dev := range fig5Devices {
		sys, v := measure("mlc.buffer_warm", o.Seed+fig5SeedOffset, dev)
		if err := matchFig5(d, k, v); err != nil {
			return fmt.Errorf("fig5 replay %d: %w", i, err)
		}
		src = sys
	}
	measureSeed := o.Seed + fig5SeedOffset
	if coldSeed != 0 {
		src, _ = measure("mlc.buffer_cold", coldSeed, cxlDevice)
		measureSeed = coldSeed
	}
	return replayCache(src, samples, measureSeed, i, tr, root)
}

// replayCache times the cache layer's calls on a measured CXL-A system src:
// capturing its hierarchy, materializing a fresh one, restoring the
// snapshot into another, and replaying a measurement-sized stream on it.
func replayCache(src *topo.System, samples int, seed uint64, i int64, tr *tracer, root int) error {
	var snap *cache.Snapshot
	ok := false
	tr.do("cache.capture", root, i, func() (int64, error) {
		snap, ok = src.Hier.Capture()
		if !ok {
			return 0, nil
		}
		return snap.Bytes(), nil
	})
	if !ok {
		return fmt.Errorf("cache replay %d: capture failed", i)
	}
	var counts cache.LevelCounts
	var fresh *topo.System
	tr.do("topo.build", root, i, func() (int64, error) { fresh = newSystem(); return 0, nil })
	home := fresh.HomeFor(fresh.Path(cxlDevice), 0)
	tr.do("cache.materialize", root, i, func() (int64, error) {
		fresh.Hier.ReadStreamSharded(0, []uint64{0}, home, &counts, 0)
		return 1, nil
	})
	var restored *topo.System
	tr.do("topo.build", root, i, func() (int64, error) { restored = newSystem(); return 0, nil })
	tr.do("cache.restore", root, i, func() (int64, error) { ok = restored.Hier.Restore(snap); return snap.Bytes(), nil })
	if !ok {
		return fmt.Errorf("cache replay %d: restore failed", i)
	}
	addrs := make([]uint64, samples)
	rng := sim.NewRng(seed)
	for k := range addrs {
		addrs[k] = uint64(rng.Int63n(fig5Buffer/cache.LineBytes)) * cache.LineBytes
	}
	home = restored.HomeFor(restored.Path(cxlDevice), 0)
	tr.do("cache.replay", root, i, func() (int64, error) {
		restored.Hier.ReadStreamSharded(0, addrs, home, &counts, 0)
		return int64(len(addrs)), nil
	})
	return nil
}

// replayFig5Cold replays a fig5-cold op: the run at the op's new seed, with
// the cold measurement under a second seed of the op's own.
func replayFig5Cold(b *bench, i int64, tr *tracer, root int) error {
	o := experiments.DefaultOptions()
	o.Seed = b.derive(streamCold, i)
	return b.replayFig5(o, "json", b.derive(streamLayer, i), i, tr, root)
}

// replayFig5Warm replays a fig5-warm op: the run at quick seed 1, whose
// warm states set-up left, so every measurement restores.
func replayFig5Warm(b *bench, i int64, tr *tracer, root int) error {
	return b.replayFig5(quickOptions(), "text", 0, i, tr, root)
}

// replayTimeline replays a timeline-cold op: Experiment.Run at the op's new
// seed and its emission, then the same timeline run directly, untapped and
// through workloads.RunTimeline (which taps telemetry.Sim); both must
// reproduce the run's cells.
func replayTimeline(b *bench, i int64, tr *tracer, root int) error {
	o := experiments.DefaultOptions()
	o.Seed = b.derive(streamCold, i)
	var d *results.Dataset
	tr.do("experiments.run.tpp-timeline", root, i, func() (int64, error) { d = b.timeline.Run(o); return 0, nil })
	if _, err := tr.do("results.emit.json", root, i, func() (int64, error) {
		text, err := results.Emit(d, "json")
		return int64(len(text)), err
	}); err != nil {
		return err
	}
	tc, dev, err := timelineConfig(o.Seed, false)
	if err != nil {
		return err
	}
	var sys *topo.System
	tr.do("topo.build", root, i, func() (int64, error) { sys = newSystem(); return 0, nil })
	var untapped tpptimeline.Result
	tr.do("tpp.run", root, i, func() (int64, error) {
		untapped = tpptimeline.Run(sys, tc, dev)
		return int64(untapped.Events.Dispatched), nil
	})
	if err := matchTimeline(d, untapped); err != nil {
		return fmt.Errorf("timeline replay %d: %w", i, err)
	}
	w, err := workloads.Get("tpp-timeline")
	if err != nil {
		return err
	}
	var env *workloads.Env
	tr.do("topo.build", root, i, func() (int64, error) {
		env = &workloads.Env{Sys: newSystem(), Platform: topo.DefaultPlatform, Seed: o.Seed}
		return 0, nil
	})
	var tapped tpptimeline.Result
	if _, err := tr.do("sim.tapped_run", root, i, func() (n int64, err error) {
		tapped, err = workloads.RunTimeline(env, w.DefaultConfig())
		return int64(tapped.Events.Dispatched), err
	}); err != nil {
		return err
	}
	if !reflect.DeepEqual(tapped.Epochs, untapped.Epochs) {
		return fmt.Errorf("timeline replay %d: tapped and untapped timelines differ", i)
	}
	return nil
}

// replayServeHits replays a serve-hits op by its mix slot. A hit is fetched
// over HTTP and then looked up and emitted in process, which must give the
// same bytes; the HTTP time those two calls leave is the serve layer's
// overhead. A new cell is evaluated with experiments.ScenarioResult, and a
// fast estimate is run through the memo and then estimated directly with
// mlc.BufferLatencyEstimate, which must reproduce its CXL-A cell.
func replayServeHits(b *bench, i int64, tr *tracer, root int) error {
	slot := b.mix[i%int64(len(b.mix))]
	b.kindOps[slot.kind].Add(1)
	emit := func(d *results.Dataset, format string) (string, float64, error) {
		var text string
		ms, err := tr.do("results.emit."+format, root, i, func() (n int64, err error) {
			text, err = results.Emit(d, format)
			return int64(len(text)), err
		})
		return text, ms, err
	}
	switch slot.kind {
	case kindHit, kindCellHit:
		hk := b.hitKey(slot)
		var body []byte
		httpMs, err := tr.do("serve.http", root, i, func() (n int64, err error) {
			body, err = b.get(hk.path)
			return int64(len(body)), err
		})
		if err != nil {
			return err
		}
		if err := sameBytes(body, hk).fn(); err != nil {
			return err
		}
		var d *results.Dataset
		format, lookup := hk.format, "memo.run_dataset"
		if slot.kind == kindCellHit {
			format, lookup = "json", "memo.scenario_result"
		}
		runMs, err := tr.do(lookup, root, i, func() (_ int64, err error) {
			if slot.kind == kindCellHit {
				d, err = experiments.ScenarioResult(experiments.DefaultOptions(), hk.sc)
			} else {
				d, err = experiments.RunDataset(hk.id, quickOptions())
			}
			return 0, err
		})
		if err != nil {
			return err
		}
		text, emitMs, err := emit(d, format)
		if err != nil {
			return err
		}
		if text != string(body) {
			return fmt.Errorf("hit %s: in-process emission differs from HTTP", hk.path)
		}
		if slot.kind == kindHit {
			tr.sample("serve.overhead_ms", httpMs-runMs-emitMs)
		}
		return nil
	case kindCell:
		sc, err := workloads.ParseScenario(b.newCellSpec(i))
		if err != nil {
			return err
		}
		var d *results.Dataset
		if _, err := tr.do("workloads.cell_eval", root, i, func() (_ int64, err error) {
			d, err = experiments.ScenarioResult(experiments.DefaultOptions(), sc)
			return 0, err
		}); err != nil {
			return err
		}
		text, _, err := emit(d, "json")
		if err != nil {
			return err
		}
		return checkCell([]byte(text), sc)
	default:
		o := fastOptions(b.derive(streamFast, i))
		var d *results.Dataset
		if _, err := tr.do("memo.run_dataset", root, i, func() (_ int64, err error) {
			d, err = experiments.RunDataset("fig5", o)
			return 0, err
		}); err != nil {
			return err
		}
		var sys *topo.System
		tr.do("topo.build", root, i, func() (int64, error) { sys = newSystem(); return 0, nil })
		var v sim.Time
		tr.do("mlc.estimate", root, i, func() (int64, error) {
			v = mlc.BufferLatencyEstimate(sys, sys.Path(cxlDevice), fig5Buffer)
			return 0, nil
		})
		if err := matchFig5(d, 1, v); err != nil {
			return fmt.Errorf("fast replay %d: %w", i, err)
		}
		_, _, err := emit(d, "json")
		return err
	}
}

// --- per-layer metrics -----------------------------------------------------------

// layerMetrics are the traced run's per-layer metrics, each with its base:
// span timings (median over the traced replays' spans of one name), the
// layer counters over the window, and the tracing overhead of the traced
// replays against the untraced ones. A layer the workload's ops never
// call reads 0 over a base of 0.
func layerMetrics(win *window, tr *tracer) (map[string]metric, map[string]int64) {
	spans := tr.byName()
	out := map[string]metric{}
	bases := map[string]int64{}
	set := func(name, unit string, v float64, base int64) {
		out[name] = metric{v, unit}
		bases[name] = base
	}
	st := func(name string) *spanStats {
		if s := spans[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
	med := func(span string) float64 {
		if s := st(span); len(s.ms) > 0 {
			return median(s.ms)
		}
		return 0
	}
	n := func(span string) int64 { return int64(len(st(span).ms)) }
	timing := func(name, unit, span string, scale float64) { set(name, unit, scale*med(span), n(span)) }
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}

	timing("topo.build_ms", "ms", "topo.build", 1)
	timing("cache.materialize_ms", "ms", "cache.materialize", 1)
	timing("cache.capture_ms", "ms", "cache.capture", 1)
	timing("cache.restore_ms", "ms", "cache.restore", 1)
	capture := st("cache.capture")
	set("cache.arena_mb", "MB", safeDiv(float64(capture.size), float64(len(capture.ms)))/(1<<20), n("cache.capture"))
	replay := st("cache.replay")
	set("cache.replay_maccess_per_s", "Maccess/s", safeDiv(float64(replay.size), sum(replay.ms)*1e3), n("cache.replay"))
	timing("mlc.buffer_cold_ms", "ms", "mlc.buffer_cold", 1)
	timing("mlc.buffer_warm_ms", "ms", "mlc.buffer_warm", 1)
	warmup := 0.0
	if n("mlc.buffer_cold") > 0 && n("mlc.buffer_warm") > 0 {
		warmup = med("mlc.buffer_cold") - med("mlc.buffer_warm")
	}
	set("mlc.warmup_ms", "ms", warmup, min(n("mlc.buffer_cold"), n("mlc.buffer_warm")))
	timing("mlc.estimate_us", "us", "mlc.estimate", 1e3)

	run := st("tpp.run")
	set("sim.events", "count", safeDiv(float64(run.size), float64(len(run.ms))), n("tpp.run"))
	set("sim.ns_per_event", "ns", safeDiv(sum(run.ms)*1e6, float64(run.size)), n("tpp.run"))
	tapOverhead := 0.0
	if n("tpp.run") > 0 && n("sim.tapped_run") > 0 {
		tapOverhead = med("sim.tapped_run")/med("tpp.run") - 1
	}
	set("sim.tap_overhead_frac", "ratio", tapOverhead, n("sim.tapped_run"))
	timing("tpp.run_ms", "ms", "tpp.run", 1)
	timing("experiments.run_ms.fig5", "ms", "experiments.run.fig5", 1)
	timing("experiments.run_ms.tpp-timeline", "ms", "experiments.run.tpp-timeline", 1)

	ratio := func(hits, misses int64) float64 { return safeDiv(float64(hits), float64(hits+misses)) }
	set("mlc.warmstate_hits", "count", float64(win.warm.Hits), win.ops)
	set("mlc.warmstate_misses", "count", float64(win.warm.Misses), win.ops)
	set("mlc.warmstate_hit_ratio", "ratio", ratio(win.warm.Hits, win.warm.Misses), win.warm.Hits+win.warm.Misses)
	set("memo.dataset_hits", "count", float64(win.dataset.Hits), win.ops)
	set("memo.dataset_misses", "count", float64(win.dataset.Misses), win.ops)
	set("memo.dataset_hit_ratio", "ratio", ratio(win.dataset.Hits, win.dataset.Misses), win.dataset.Hits+win.dataset.Misses)
	set("memo.cell_hits", "count", float64(win.cell.Hits), win.ops)
	set("memo.cell_misses", "count", float64(win.cell.Misses), win.ops)
	set("memo.cell_evictions", "count", float64(win.cell.Evictions), win.ops)
	timing("workloads.cell_eval_ms", "ms", "workloads.cell_eval", 1)

	var emitBytes, emits int64
	for _, format := range results.Formats() {
		name := "results.emit." + format
		timing("results.emit_us."+format, "us", name, 1e3)
		emitBytes += st(name).size
		emits += n(name)
	}
	set("results.emit_bytes", "bytes", safeDiv(float64(emitBytes), float64(emits)), emits)
	overhead := tr.samples["serve.overhead_ms"]
	set("serve.overhead_ms", "ms", medianOr0(overhead), int64(len(overhead)))
	set("serve.shed", "count", float64(win.shed), win.ops)

	traced, untraced := medianOr0(win.tracedLat), medianOr0(win.untracedLat)
	set("trace.ops", "count", float64(len(win.tracedLat)), win.ops)
	set("trace.spans", "count", float64(len(tr.spans)), int64(len(win.tracedLat)))
	set("trace.latency_p50_ms", "ms", traced, int64(len(win.tracedLat)))
	set("trace.untraced_latency_p50_ms", "ms", untraced, int64(len(win.untracedLat)))
	set("trace.overhead_frac", "ratio", safeDiv(traced, untraced)-1, int64(len(win.tracedLat)))
	return out, bases
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
