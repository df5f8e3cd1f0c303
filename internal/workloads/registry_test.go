package workloads

import (
	"strings"
	"testing"
)

// allModels are the registered workloads: the seven per-model subpackages
// plus the event-driven tpp-timeline, in sorted registry order.
var allModels = []string{"dlrm", "dsb", "fio", "fluid", "kvstore", "spec", "tpp-timeline", "ycsb"}

// TestAllModelsRegistered asserts every model has a registry row, in sorted
// order with lowercase names, and the registry views agree with each other.
func TestAllModelsRegistered(t *testing.T) {
	names := Names()
	if len(names) != len(allModels) {
		t.Fatalf("registry has %d workloads %v, want the models %v", len(names), names, allModels)
	}
	for i, want := range allModels {
		if names[i] != want {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], want)
		}
	}
	for _, w := range All() {
		got, err := Get(w.Name)
		if err != nil || got.Name != w.Name {
			t.Errorf("Get(%q) = %v, %v", w.Name, got, err)
		}
		if w.Name != strings.ToLower(w.Name) {
			t.Errorf("%s: registry names must be lowercase", w.Name)
		}
		if w.Desc == "" || len(w.Variants) == 0 || w.Run == nil {
			t.Errorf("%s: empty description, variant list or run function", w.Name)
		}
	}
	if _, err := Get("nosuchworkload"); err == nil {
		t.Error("Get of unknown workload should error")
	}
}

// TestDefaultsRunnable runs every registered workload with its unmodified
// DefaultConfig in a quick environment: no error, at least one metric, a
// positive primary value, and the default variant listed in Variants.
func TestDefaultsRunnable(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := w.DefaultConfig()
			found := false
			for _, v := range w.Variants {
				if v == cfg.Variant {
					found = true
				}
			}
			if !found {
				t.Errorf("default variant %q not in Variants %v", cfg.Variant, w.Variants)
			}
			env := NewEnv()
			env.Quick = true
			m, err := w.Run(env, cfg)
			if err != nil {
				t.Fatalf("default config does not run: %v", err)
			}
			if len(m.Items) == 0 {
				t.Fatal("run returned no metrics")
			}
			if p := m.Primary(); p.Name == "" || p.Value <= 0 {
				t.Errorf("primary metric %+v not positive", p)
			}
		})
	}
}

// TestRunsDeterministic pins the determinism contract: two runs with equal
// (env, cfg) produce identical metrics.
func TestRunsDeterministic(t *testing.T) {
	for _, w := range All() {
		env := NewEnv()
		env.Quick = true
		a, err1 := w.Run(env, w.DefaultConfig())
		env2 := NewEnv()
		env2.Quick = true
		b, err2 := w.Run(env2, w.DefaultConfig())
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", w.Name, err1, err2)
		}
		if len(a.Items) != len(b.Items) {
			t.Fatalf("%s: metric counts differ", w.Name)
		}
		for i := range a.Items {
			if a.Items[i] != b.Items[i] {
				t.Errorf("%s: metric %d differs: %+v vs %+v", w.Name, i, a.Items[i], b.Items[i])
			}
		}
	}
}

// TestUnknownVariantRejected asserts adapters reject a bogus variant with a
// helpful error instead of panicking.
func TestUnknownVariantRejected(t *testing.T) {
	for _, w := range All() {
		cfg := w.DefaultConfig()
		cfg.Variant = "nosuchvariant"
		if _, err := w.Run(NewEnv(), cfg); err == nil || !strings.Contains(err.Error(), "variant") {
			t.Errorf("%s: want unknown-variant error, got %v", w.Name, err)
		}
	}
}

// TestUnknownDeviceRejected asserts adapters reject a bogus device name.
func TestUnknownDeviceRejected(t *testing.T) {
	for _, w := range All() {
		cfg := w.DefaultConfig()
		cfg.Device = "CXL-Z"
		env := NewEnv()
		env.Quick = true
		if _, err := w.Run(env, cfg); err == nil {
			t.Errorf("%s: unknown device accepted", w.Name)
		}
	}
}

// TestCatalog sanity-checks the generated EXPERIMENTS.md catalog rows.
func TestCatalog(t *testing.T) {
	cat := Catalog()
	for _, name := range allModels {
		if !strings.Contains(cat, "| `"+name+"` |") {
			t.Errorf("catalog missing row for %s:\n%s", name, cat)
		}
	}
}
