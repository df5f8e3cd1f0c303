// The tpp-timeline experiment: the first event-driven driver, rendering the
// tpptimeline workload's per-epoch time series as a dataset (DESIGN.md §13).
package experiments

import (
	"cxlmem/internal/results"
	"cxlmem/internal/workloads"
	"cxlmem/internal/workloads/tpptimeline"
)

// timelineCell pairs a timeline result with its error through the sweep
// engine's value slot.
type timelineCell struct {
	r   tpptimeline.Result
	err error
}

// runTppTimeline executes the event-driven model once (a single scheduler is
// inherently serial, so any Options.Parallel setting produces the same
// bytes; the sweep engine wraps the run only for cancellation plumbing) and
// lays the timeline out one row per epoch.
func runTppTimeline(o Options) *results.Dataset {
	env, err := o.scenarioEnv("")
	if err != nil {
		panic(err)
	}
	w, err := workloads.Get("tpp-timeline")
	if err != nil {
		panic(err)
	}
	cfg := w.DefaultConfig()
	res := sweepPoints(o, 1, func(int) timelineCell {
		r, rerr := workloads.RunTimeline(env, cfg)
		return timelineCell{r: r, err: rerr}
	})[0]
	if res.err != nil {
		panic(res.err)
	}
	d := newDataset(o, "tpp-timeline",
		"TPP promotion/demotion timeline under bursty open-loop load (event-driven engine)",
		col("Epoch", ""), col("t", "ms"), col("DDR pages", "pages"), col("CXL pages", "pages"),
		col("Promo", "pages"), col("Demo", "pages"), col("Migr/s", "1/s"),
		col("Accesses", "ops"), col("p99", "us"), col("mean", "us"))
	for _, es := range res.r.Epochs {
		d.AddRow(
			results.Int(int64(es.Index)),
			results.Num(es.Start.Milliseconds(), 1),
			results.Int(es.LocalPages),
			results.Int(es.FarPages),
			results.Int(es.Promotions),
			results.Int(es.Demotions),
			results.Num(es.MigrationsPerSec, 0),
			results.Int(es.Accesses),
			results.Num(es.P99, 2),
			results.Num(es.Mean, 2),
		)
	}
	d.AddNote("cold start: all pages far; TPP promotes toward its 75%% DDR target while bursts stress the M/G/1 tail (Fig. 7 mechanism over time)")
	return d
}
