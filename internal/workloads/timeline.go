// The tpp-timeline adapter: the first event-driven workload, running on the
// internal/sim discrete-event scheduler instead of a closed-form model. Its
// registry row sets EventDriven, which keeps it out of the steady-state
// matrix experiments.
package workloads

import (
	"cxlmem/internal/numa"
	"cxlmem/internal/sim"
	"cxlmem/internal/telemetry"
	"cxlmem/internal/workloads/tpptimeline"
)

// timelineEpochCap bounds the epoch count a spec can request, so a fuzzed or
// hostile ops= knob cannot schedule an unbounded simulation.
const timelineEpochCap = 5000

// timelineConfigFor maps the generic knobs onto tpptimeline.Config: size
// resizes the page space, qps sets the base rate (bursts run at 6x base),
// ops is the epoch count, and the policy percent is the initial placement.
func timelineConfigFor(env *Env, cfg Config) (tpptimeline.Config, error) {
	tc := tpptimeline.DefaultConfig()
	if env != nil && env.Quick {
		tc = tc.Quick()
	}
	switch cfg.Variant {
	case "bursty":
		// Keep the default burst modulation.
	case "steady":
		tc.BurstQPS = tc.BaseQPS
	default:
		return tpptimeline.Config{}, errUnknownVariant("tpp-timeline", cfg.Variant)
	}
	tc.FarPercent = cfg.CXLPercent
	if cfg.SizeBytes > 0 {
		pages := int(cfg.SizeBytes / numa.PageBytes)
		if pages < 64 {
			pages = 64
		}
		tc.Pages = pages
	}
	if cfg.TargetQPS > 0 {
		tc.BaseQPS = cfg.TargetQPS
		tc.BurstQPS = 6 * cfg.TargetQPS
		if cfg.Variant == "steady" {
			tc.BurstQPS = cfg.TargetQPS
		}
	}
	if cfg.Ops > 0 {
		tc.Epochs = cfg.Ops
		if tc.Epochs > timelineEpochCap {
			tc.Epochs = timelineEpochCap
		}
		// Quick mode stays quick even when a spec asks for a long horizon.
		if env != nil && env.Quick && tc.Epochs > 200 {
			tc.Epochs = 200
		}
	}
	tc.Seed = env.seed(cfg, tc.Seed)
	return tc, nil
}

// RunTimeline executes the tpp-timeline model under env with cfg's knob
// overrides, returning the full time series. The process-wide telemetry
// trace sink observes the run (feeding cxlserve's /v1/trace and /metrics);
// extra taps are attached after it. The experiments driver calls this
// directly for the timeline dataset; runTimeline reduces the same result to
// summary metrics.
func RunTimeline(env *Env, cfg Config, taps ...sim.Tap) (tpptimeline.Result, error) {
	tc, err := timelineConfigFor(env, cfg)
	if err != nil {
		return tpptimeline.Result{}, err
	}
	if _, err := devicePath(env, cfg.Device); err != nil {
		return tpptimeline.Result{}, err
	}
	if err := tc.Validate(); err != nil {
		return tpptimeline.Result{}, err
	}
	all := append([]sim.Tap{telemetry.Sim.Tap()}, taps...)
	return tpptimeline.Run(env.Sys, tc, cfg.Device, all...), nil
}

// runTimeline replays TPP promotion/demotion decisions as scheduled events
// over a bursty arrival process and reduces the timeline to steady-state
// summary metrics over the last quarter of the epochs (the post-ramp
// regime).
func runTimeline(env *Env, cfg Config) (Metrics, error) {
	res, err := RunTimeline(env, cfg)
	if err != nil {
		return Metrics{}, err
	}
	tail := res.Epochs[len(res.Epochs)*3/4:]
	var p99, mean, migs float64
	var n int
	for _, es := range tail {
		if es.Accesses == 0 {
			continue
		}
		p99 += es.P99
		mean += es.Mean
		migs += es.MigrationsPerSec
		n++
	}
	if n > 0 {
		p99 /= float64(n)
		mean /= float64(n)
		migs /= float64(n)
	}
	var m Metrics
	m.Add("p99_us", p99, "us")
	m.Add("mean_us", mean, "us")
	m.Add("migr_per_sec", migs, "1/s")
	m.Add("promotions", float64(res.Promotions), "pages")
	m.Add("demotions", float64(res.Demotions), "pages")
	m.Add("final_far_frac", res.FinalFarFraction, "frac")
	return m, nil
}
