package experiments

import (
	"os"
	"strings"
	"testing"
)

// keysFile pins the memo-key text: keys name dataset-cache entries, pick
// the owning replica on the rendezvous ring and label saved dataset
// snapshots, so a key that moves silently invalidates all three.
const keysFile = "testdata/keys.txt"

// memoKeyLines lists DatasetKey for every registered ID at each quick and
// fidelity setting, then ScenarioKey for every matrix cell at the default
// and quick options.
func memoKeyLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, id := range IDs() {
		for _, quick := range []bool{false, true} {
			for _, f := range []Fidelity{FidelityExact, FidelityFast} {
				o := DefaultOptions()
				o.Quick, o.Fidelity = quick, f
				key, err := DatasetKey(id, o)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, key)
			}
		}
	}
	matrices := []struct {
		id    string
		specs func() []string
	}{
		{"matrix-apps", matrixAppsSpecs},
		{"matrix-platform", matrixPlatformSpecs},
		{"matrix-policy", matrixPolicySpecs},
		{"matrix-size", matrixSizeSpecs},
	}
	for _, m := range matrices {
		for _, sc := range mustScenarios(m.specs()) {
			for _, quick := range []bool{false, true} {
				o := DefaultOptions()
				o.Quick = quick
				lines = append(lines, m.id+" "+ScenarioKey(o, sc))
			}
		}
	}
	return lines
}

// TestMemoKeysPinned asserts every dataset and matrix-cell memo key matches
// the pinned text byte for byte.
func TestMemoKeysPinned(t *testing.T) {
	raw, err := os.ReadFile(keysFile)
	if err != nil {
		t.Fatal(err)
	}
	want, got := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n"), memoKeyLines(t)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d keys, want %d", keysFile, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s line %d:\n got  %s\n want %s", keysFile, i+1, got[i], want[i])
		}
	}
}
