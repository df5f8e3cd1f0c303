// The workload registry: the single place experiment drivers, the scenario
// engine and the cxlbench command discover runnable application models. It
// is one fixed table, sorted by name, with read-only lookups.
package workloads

import (
	"fmt"
	"slices"
	"strings"
)

// registry is every runnable workload, sorted by name — the order of All,
// Names and the generated catalog. It is assigned in init, not in its
// declaration, because the run functions reach it through
// errUnknownVariant, which would make the initializer depend on itself.
var registry []Workload

// byName indexes registry by Name for the per-request lookups of
// ParseScenario and Scenario.Run.
var byName map[string]Workload

func init() {
	registry = []Workload{
		{
			Name: "dlrm",
			Desc: "DLRM embedding-reduction throughput under an SNC scenario (Fig. 9a, Table 3)",
			// The Table-3 SNC scenarios.
			Variants: []string{"alone", "contended", "nosnc"},
			Default:  Config{Variant: "alone", Device: "CXL-A", CXLPercent: 63, Threads: 32},
			Run:      runDLRM,
		},
		{
			Name: "dsb",
			Desc: "DeathStarBench request pipeline p99 with the caching tier on DDR or CXL (Fig. 6b-d)",
			// The evaluated request types. The caching tier moves to CXL for
			// any positive CXLPercent — the paper evaluates only the
			// all-or-nothing tier placement (Table 2).
			Variants: []string{"mixed", "compose", "readuser"},
			Default:  Config{Variant: "mixed", Device: "CXL-A", CXLPercent: 100, TargetQPS: 8000, Ops: 20000},
			Run:      runDSB,
		},
		{
			Name: "fio",
			Desc: "FIO random-read p99 with the page cache on DDR or CXL memory (Fig. 8)",
			// The Fig. 8 block sizes. The page cache moves to CXL for any
			// positive CXLPercent; SizeBytes resizes the page cache.
			Variants: fioVariants(),
			Default:  Config{Variant: "4k", Device: "CXL-A", CXLPercent: 100, Ops: 40000},
			Run:      runFIO,
		},
		{
			Name: "fluid",
			Desc: "raw bandwidth-equilibrium stream split across DDR and CXL (Fig. 11a feedback loop)",
			// SizeBytes is the streamed working set.
			Variants: []string{"stream"},
			Default:  Config{Variant: "stream", Device: "CXL-A", CXLPercent: 50, SizeBytes: 256 << 20, Threads: 16},
			Run:      runFluid,
		},
		{
			Name: "kvstore",
			Desc: "Redis under open-loop YCSB-A load: p50/p99 latency and utilization (Fig. 6a)",
			// The key distribution of the op stream.
			Variants: []string{"uniform", "zipfian"},
			Default:  Config{Variant: "uniform", Device: "CXL-A", CXLPercent: 50, TargetQPS: 45000, Ops: 40000},
			Run:      runKVStore,
		},
		{
			Name: "spec",
			Desc: "SPECrate CPU2017 surrogate throughput for a benchmark or the 4-way mix (Fig. 13)",
			// Individual benchmarks or the 4-way mix. Threads is the total
			// instance count, split evenly across the mix members.
			Variants: specVariants(),
			Default:  Config{Variant: "mix", Device: "CXL-A", CXLPercent: 50, Threads: 8},
			Run:      runSPEC,
		},
		{
			Name: "tpp-timeline",
			Desc: "event-driven TPP migration timeline under bursty open-loop load (Fig. 7 mechanism, over time)",
			// Bursty keeps the on/off phase modulation, steady holds the
			// offered load flat at the base rate. CXLPercent is the initial
			// far-tier share (the Fig. 7 cold start puts everything far),
			// TargetQPS the base rate, and Ops the epoch count on the 5 ms
			// sampling grid.
			Variants:    []string{"bursty", "steady"},
			Default:     Config{Variant: "bursty", Device: "CXL-A", CXLPercent: 100, TargetQPS: 50_000, Ops: 200},
			EventDriven: true,
			Run:         runTimeline,
		},
		{
			Name: "ycsb",
			Desc: "Redis max sustainable QPS for a YCSB core workload mix (Fig. 9b)",
			// The YCSB letters; descriptive aliases (readmostly=b,
			// readonly=c, updateheavy=a, readlatest=d, rmw=f) resolve to the
			// same mixes.
			Variants: []string{"a", "b", "c", "d", "f", "updateheavy", "readmostly", "readonly", "readlatest", "rmw"},
			Default:  Config{Variant: "a", Device: "CXL-A", CXLPercent: 50, Ops: 20000},
			Run:      runYCSB,
		},
	}
	byName = make(map[string]Workload, len(registry))
	for _, w := range registry {
		byName[w.Name] = w
	}
}

// Get returns the registered workload with the given name.
func Get(name string) (Workload, error) {
	w, ok := byName[name]
	if !ok {
		return Workload{}, fmt.Errorf("workloads: unknown workload %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return w, nil
}

// All returns every registered workload sorted by name.
func All() []Workload { return slices.Clone(registry) }

// Names returns the registry keys sorted.
func Names() []string {
	names := make([]string, len(registry))
	for i, w := range registry {
		names[i] = w.Name
	}
	return names
}

// Catalog renders the registry as markdown table rows (one per workload:
// name, variants, default knobs, description) — the generated scenario
// catalog embedded in EXPERIMENTS.md. Regenerate with
//
//	go run ./cmd/cxlbench -scenario list
func Catalog() string {
	var b strings.Builder
	b.WriteString("| Workload | Variants | Default knobs | Models |\n")
	b.WriteString("|----------|----------|---------------|--------|\n")
	for _, w := range registry {
		cfg := w.Default
		knobs := []string{fmt.Sprintf("cxl=%g%%", cfg.CXLPercent)}
		if cfg.SizeBytes > 0 {
			knobs = append(knobs, "size="+FormatBytes(cfg.SizeBytes))
		}
		if cfg.TargetQPS > 0 {
			knobs = append(knobs, fmt.Sprintf("qps=%g", cfg.TargetQPS))
		}
		if cfg.Threads > 0 {
			knobs = append(knobs, fmt.Sprintf("threads=%d", cfg.Threads))
		}
		if cfg.Ops > 0 {
			knobs = append(knobs, fmt.Sprintf("ops=%d", cfg.Ops))
		}
		fmt.Fprintf(&b, "| `%s` | %s | `%s` | %s |\n",
			w.Name, strings.Join(w.Variants, ", "), strings.Join(knobs, " "), w.Desc)
	}
	return b.String()
}
