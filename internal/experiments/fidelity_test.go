package experiments

import (
	"math"
	"strings"
	"testing"

	"cxlmem/internal/results"
)

func TestParseFidelity(t *testing.T) {
	for in, want := range map[string]Fidelity{
		"": FidelityExact, "exact": FidelityExact, "EXACT": FidelityExact,
		"fast": FidelityFast, "Fast": FidelityFast,
	} {
		got, err := ParseFidelity(in)
		if err != nil || got != want {
			t.Errorf("ParseFidelity(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	// There are two tiers; "auto" is as unknown as any other name.
	for _, in := range []string{"cheap", "auto", "AUTO"} {
		if _, err := ParseFidelity(in); err == nil ||
			!strings.Contains(err.Error(), "unknown fidelity") {
			t.Errorf("ParseFidelity(%q) error = %v, want unknown-fidelity", in, err)
		}
	}
}

func TestRunDatasetRejectsBadFidelity(t *testing.T) {
	o := DefaultOptions()
	o.Fidelity = "approximate"
	if _, err := RunDataset("fig5", o); err == nil {
		t.Fatal("bad fidelity should fail validation")
	}
}

// TestFidelityCaching pins the memo-key honesty rules: a fidelity-consuming
// experiment caches exact and fast runs separately, while one that ignores
// the knob shares a single entry (and a single dataset pointer) across
// fidelities, exactly as platform blanking works for the fixed figures.
func TestFidelityCaching(t *testing.T) {
	exact := DefaultOptions()
	exact.Quick = true
	fast := exact
	fast.Fidelity = FidelityFast

	f5exact, err := RunDataset("fig5", exact)
	if err != nil {
		t.Fatal(err)
	}
	f5fast, err := RunDataset("fig5", fast)
	if err != nil {
		t.Fatal(err)
	}
	if f5exact == f5fast {
		t.Error("fig5 exact and fast runs share one cache entry; fidelity must fork the key")
	}
	if f5exact.Prov.Fidelity != "" {
		t.Errorf("exact fig5 provenance fidelity = %q, want empty", f5exact.Prov.Fidelity)
	}
	if f5fast.Prov.Fidelity != "fast" {
		t.Errorf("fast fig5 provenance fidelity = %q, want fast", f5fast.Prov.Fidelity)
	}

	f3exact, err := RunDataset("fig3", exact)
	if err != nil {
		t.Fatal(err)
	}
	f3fast, err := RunDataset("fig3", fast)
	if err != nil {
		t.Fatal(err)
	}
	if f3exact != f3fast {
		t.Error("fig3 ignores fidelity but forked its cache entry anyway")
	}
	if f3fast.Prov.Fidelity != "" {
		t.Errorf("fig3 provenance fidelity = %q, want empty (knob blanked)", f3fast.Prov.Fidelity)
	}
}

// TestFastFidelityTracksExact bounds the rendered divergence of the analytic
// tier on the real operating points: both fig5 placements and both
// ablation-llc configurations sit off-knee, and mlc's property test
// guarantees 10% off-knee accuracy — checked here end to end through the
// experiment drivers.
func TestFastFidelityTracksExact(t *testing.T) {
	for _, id := range []string{"fig5", "ablation-llc"} {
		exact := DefaultOptions()
		exact.Quick = true
		fast := exact
		fast.Fidelity = FidelityFast
		de, err := RunDataset(id, exact)
		if err != nil {
			t.Fatal(err)
		}
		da, err := RunDataset(id, fast)
		if err != nil {
			t.Fatal(err)
		}
		// fig5's latencies are one Num per row; ablation-llc's first row
		// holds both of its measured latencies (its second row is the DLRM
		// app model, which never touches the hot path and stays identical).
		rows := []int{0, 1}
		if id == "ablation-llc" {
			rows = []int{0}
		}
		for _, row := range rows {
			for c, cell := range de.Rows[row] {
				if cell.Kind != results.KindFloat || cell.Float <= 0 {
					continue
				}
				rel := math.Abs(da.Rows[row][c].Float-cell.Float) / cell.Float
				if rel > 0.10 {
					t.Errorf("%s row %d col %d: fast %.2f vs exact %.2f (%.1f%% off)",
						id, row, c, da.Rows[row][c].Float, cell.Float, rel*100)
				}
			}
		}
	}
}
