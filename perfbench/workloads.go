package main

import (
	"bytes"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strconv"

	"cxlmem/internal/experiments"
	"cxlmem/internal/results"
	"cxlmem/internal/workloads"
)

// A workload is one closed loop: conns clients, each sending its next op
// only after the previous one completed. Every workload runs in its own
// process, so memo and warm-state caches never carry across workloads.
type workload struct {
	name  string
	conns int
	// setup runs the golden gate for every ID the workload touches and
	// precomputes whatever its ops hit.
	setup func(b *bench) error
	// op performs op i as a user of the program would and returns the
	// check of its output.
	op func(b *bench, i int64) (check, error)
	// replay performs op i's work by calling the layers' public functions
	// directly, one span per call under root (none when tr is nil), and
	// checks that the calls reproduce the op's output.
	replay func(b *bench, i int64, tr *tracer, root int) error
	// prove checks, from the layer counters, that the window carried the
	// traffic the workload claims.
	prove func(b *bench, w *window) []proof
}

var allWorkloads = []*workload{
	{name: "fig5-cold", conns: 1, setup: gateCold("fig5"), op: coldOp("fig5"), replay: replayFig5Cold, prove: proveFig5Cold},
	{name: "fig5-warm", conns: 1, setup: setupFig5Warm, op: fig5WarmOp, replay: replayFig5Warm, prove: proveFig5Warm},
	{name: "timeline-cold", conns: 1, setup: gateCold("tpp-timeline"), op: coldOp("tpp-timeline"), replay: replayTimeline, prove: proveTimelineCold},
	{name: "serve-hits", conns: 2, setup: setupServeHits, op: serveHitsOp, replay: replayServeHits, prove: proveServeHits},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Input streams. Each derived seed is a pure function of the benchmark
// seed, the stream and the op index; streams are salted apart so a cold key
// can never be one another op already warmed.
const (
	streamCold uint64 = iota + 1
	streamCell
	streamFast
	streamPrefill
	streamMix
	streamLayer
)

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive returns op i's seed in one input stream. It is never the golden
// seed 1, so cold paths never touch a key the gate warmed.
func (b *bench) derive(stream uint64, i int64) uint64 {
	return 2 + splitmix(splitmix(b.seed^stream<<56)+uint64(i))%(1<<40)
}

// --- fig5-cold and timeline-cold -------------------------------------------

// gateCold gates id at quick seed 1 and records its reference shape.
func gateCold(id string) func(*bench) error {
	return func(b *bench) error { return b.gateHTTP(id) }
}

// coldOp requests id at the daemon's default options with a seed new in
// every op, so neither the dataset memo nor the warm-state cache can hit.
func coldOp(id string) func(*bench, int64) (check, error) {
	return func(b *bench, i int64) (check, error) {
		seed := b.derive(streamCold, i)
		body, err := b.get(runPath(id, "json", seedParam(seed)))
		if err != nil {
			return check{}, err
		}
		return check{later: true, fn: func() error {
			_, err := checkShape(body, b.ref[id], seed)
			return err
		}}, nil
	}
}

func seedParam(seed uint64) string { return "&seed=" + strconv.FormatUint(seed, 10) }

func proveFig5Cold(b *bench, w *window) []proof {
	points := int64(len(b.ref["fig5"].Rows)) // one warmup per sweep point
	return []proof{
		exact("dataset hits", w.dataset.Hits, 0, w.dataset.Hits+w.dataset.Misses),
		exact("dataset misses", w.dataset.Misses, w.ops, w.ops),
		exact("warm-state hits", w.warm.Hits, 0, w.warm.Hits+w.warm.Misses),
		exact("warm-state misses", w.warm.Misses, points*w.ops, w.ops),
	}
}

func proveTimelineCold(b *bench, w *window) []proof {
	return []proof{
		exact("dataset hits", w.dataset.Hits, 0, w.dataset.Hits+w.dataset.Misses),
		exact("dataset misses", w.dataset.Misses, w.ops, w.ops),
		exact("warm-state lookups", w.warm.Hits+w.warm.Misses, 0, w.ops),
		atLeast("sim events dispatched", w.simEvents, w.ops, w.ops),
	}
}

// --- fig5-warm ---------------------------------------------------------------

// setupFig5Warm reads fig5's golden text once and gates fig5 through the
// same direct Run the ops use; the run leaves the warm-state cache holding
// fig5's quick seed-1 warmups, so every timed op restores instead of
// warming.
func setupFig5Warm(b *bench) error {
	golden, err := os.ReadFile(filepath.Join(goldenDir, "fig5.txt"))
	if err != nil {
		return fmt.Errorf("golden gate: %w", err)
	}
	b.fig5Golden = string(golden)
	d := b.fig5.Run(quickOptions())
	text, err := results.Emit(d, "text")
	if err != nil {
		return err
	}
	if text != b.fig5Golden {
		return fmt.Errorf("golden gate: fig5 text output differs from fig5.txt")
	}
	b.ref["fig5"] = d
	return nil
}

// fig5WarmOp runs fig5 at the golden corpus's options directly, bypassing
// the dataset memo, and renders it as text, which must equal the golden
// file.
func fig5WarmOp(b *bench, i int64) (check, error) {
	text, err := results.Emit(b.fig5.Run(quickOptions()), "text")
	if err != nil {
		return check{}, err
	}
	return check{fn: func() error {
		if text != b.fig5Golden {
			return fmt.Errorf("fig5-warm op %d: text differs from fig5.txt", i)
		}
		return nil
	}}, nil
}

func proveFig5Warm(b *bench, w *window) []proof {
	points := int64(len(b.ref["fig5"].Rows))
	return []proof{
		exact("dataset lookups", w.dataset.Hits+w.dataset.Misses, 0, w.ops),
		exact("warm-state hits", w.warm.Hits, points*w.ops, w.ops),
		exact("warm-state misses", w.warm.Misses, 0, w.ops),
	}
}

// --- serve-hits --------------------------------------------------------------

// The serve-hits mix follows scripts/loadtest's defaultMix, the traffic CI
// replays against cxlserve: of its 8 paths, 5 are /v1/run keys and 3 are
// /v1/scenario cells, and a run at its default 512 requests touches each
// path once as a miss and hits it on every later visit. One mixCycle here
// keeps both shares: 320 run ops and 192 scenario ops, of which 5 and 3
// (the loadtest's 8 first touches in 512) are new keys. Run hits cycle
// over every (ID, format) key at quick seed 1; new run keys are new-seed
// fig5 fast estimates. Scenario hits are defaultMix's three cells; new
// cells are the same specs with a new seed.
const (
	mixCycle    = 512
	mixRunOps   = mixCycle * 5 / 8
	mixNewRuns  = 5
	mixNewCells = 3
)

type opKind int

const (
	kindHit     opKind = iota // a /v1/run key recorded in set-up
	kindCellHit               // a /v1/scenario cell recorded in set-up
	kindCell                  // a new /v1/scenario cell
	kindFast                  // a new-seed fig5 fast estimate
	numKinds
)

type mixSlot struct {
	kind opKind
	key  int // index into bench.hits (kindHit) or bench.cells (kindCellHit)
}

// hitKey is one precomputed key and the bytes set-up recorded for it.
type hitKey struct {
	path   string
	id     string             // kindHit: the experiment ID
	format string             // kindHit: the emission format
	sc     workloads.Scenario // kindCellHit: the cell
	body   []byte
}

// mixCells are scripts/loadtest defaultMix's scenario cells.
var mixCells = []string{"fluid/policy=interleave/size=64M", "kvstore/policy=cxl", "dlrm/policy=cxl:63"}

// newCellSpec is op i's new cell: one of mixCells under a seed of its own.
func (b *bench) newCellSpec(i int64) string {
	return mixCells[i%int64(len(mixCells))] + "/seed=" + strconv.FormatUint(b.derive(streamCell, i), 10)
}

// prefillCells are the cheap analytic cells set-up fills the cell cache
// with, standing for the cells an earlier client left on a warm daemon.
var prefillCells = []string{"fluid", "dlrm"}

func scenarioPath(spec string) string {
	return "/v1/scenario?format=json&spec=" + url.QueryEscape(spec)
}

// fastOptions are the daemon's default options at the estimate tier.
func fastOptions(seed uint64) experiments.Options {
	o := experiments.DefaultOptions()
	o.Fidelity = experiments.FidelityFast
	o.Seed = seed
	return o
}

// setupServeHits gates every registered ID, records each (ID, format) key's
// and each mix cell's bytes, fills the cell cache to its budget as on a
// warm daemon (so every new cell evicts one), and shuffles the op mix.
func setupServeHits(b *bench) error {
	for _, id := range experiments.IDs() {
		if err := b.gateHTTP(id); err != nil {
			return err
		}
		for _, format := range results.Formats() {
			path := runPath(id, format, quickSeed1)
			body, err := b.get(path)
			if err != nil {
				return err
			}
			if format != "text" {
				// json and csv are pinned for a few IDs only.
				if err := checkGolden(id, format, body, false); err != nil {
					return err
				}
			}
			b.hits = append(b.hits, hitKey{path: path, id: id, format: format, body: body})
		}
	}
	for _, spec := range mixCells {
		sc, err := workloads.ParseScenario(spec)
		if err != nil {
			return err
		}
		body, err := b.get(scenarioPath(spec))
		if err != nil {
			return err
		}
		b.cells = append(b.cells, hitKey{path: scenarioPath(spec), sc: sc, body: body})
	}
	_, cells := experiments.CacheStats()
	for j := int64(0); int64(cells.Size)+j < daemonCacheEntries; j++ {
		spec := prefillCells[j%int64(len(prefillCells))] + "/seed=" + strconv.FormatUint(b.derive(streamPrefill, j), 10)
		sc, err := workloads.ParseScenario(spec)
		if err != nil {
			return err
		}
		if _, err := experiments.ScenarioResult(experiments.DefaultOptions(), sc); err != nil {
			return err
		}
	}
	for k := 0; k < mixCycle; k++ {
		var slot mixSlot
		switch {
		case k < mixNewRuns:
			slot.kind = kindFast
		case k < mixRunOps:
			slot = mixSlot{kind: kindHit, key: k % len(b.hits)}
		case k < mixRunOps+mixNewCells:
			slot.kind = kindCell
		default:
			slot = mixSlot{kind: kindCellHit, key: k % len(b.cells)}
		}
		b.mix = append(b.mix, slot)
	}
	for k := len(b.mix) - 1; k > 0; k-- {
		j := int(b.derive(streamMix, int64(k)) % uint64(k+1))
		b.mix[k], b.mix[j] = b.mix[j], b.mix[k]
	}
	return nil
}

// hitKey is the recorded key of a hit slot.
func (b *bench) hitKey(s mixSlot) hitKey {
	if s.kind == kindCellHit {
		return b.cells[s.key]
	}
	return b.hits[s.key]
}

// sameBytes is the check of a hit: the bytes set-up recorded for its key.
func sameBytes(body []byte, hk hitKey) check {
	return check{fn: func() error {
		if !bytes.Equal(body, hk.body) {
			return fmt.Errorf("hit %s: bytes differ from set-up", hk.path)
		}
		return nil
	}}
}

// checkCell verifies a new cell's json: it parses and names the cell.
func checkCell(body []byte, sc workloads.Scenario) error {
	d, err := results.ParseJSON(body)
	if err != nil {
		return err
	}
	if d.Prov.Scenario != sc.String() || len(d.Rows) == 0 {
		return fmt.Errorf("cell %s: provenance %q, %d rows", sc, d.Prov.Scenario, len(d.Rows))
	}
	return nil
}

// checkFast verifies a fast estimate's json: fig5's shape, the requested
// seed, and the estimate tier in its provenance.
func checkFast(body []byte, ref *results.Dataset, seed uint64) error {
	d, err := checkShape(body, ref, seed)
	if err == nil && d.Prov.Fidelity != string(experiments.FidelityFast) {
		err = fmt.Errorf("fast fig5: provenance fidelity %q", d.Prov.Fidelity)
	}
	return err
}

func serveHitsOp(b *bench, i int64) (check, error) {
	slot := b.mix[i%int64(len(b.mix))]
	b.kindOps[slot.kind].Add(1)
	switch slot.kind {
	case kindHit, kindCellHit:
		hk := b.hitKey(slot)
		body, err := b.get(hk.path)
		return sameBytes(body, hk), err
	case kindCell:
		sc, err := workloads.ParseScenario(b.newCellSpec(i))
		if err != nil {
			return check{}, err
		}
		body, err := b.get(scenarioPath(sc.String()))
		return check{later: true, fn: func() error { return checkCell(body, sc) }}, err
	default:
		seed := b.derive(streamFast, i)
		body, err := b.get(runPath("fig5", "json", "&fidelity=fast"+seedParam(seed)))
		return check{later: true, fn: func() error { return checkFast(body, b.ref["fig5"], seed) }}, err
	}
}

func proveServeHits(b *bench, w *window) []proof {
	hits, cellHits, cells, fast := w.kinds[kindHit], w.kinds[kindCellHit], w.kinds[kindCell], w.kinds[kindFast]
	wantEvict := max(0, w.cellSizeBefore+cells-daemonCacheEntries)
	return []proof{
		exact("dataset hits", w.dataset.Hits, hits, hits+fast),
		exact("dataset misses", w.dataset.Misses, fast, hits+fast),
		exact("cell hits", w.cell.Hits, cellHits, cellHits+cells),
		exact("cell misses", w.cell.Misses, cells, cellHits+cells),
		exact("cell evictions", w.cell.Evictions, wantEvict, cells),
		atLeast("cell evictions", w.cell.Evictions, 1, cells),
	}
}
