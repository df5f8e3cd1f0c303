package numa

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func twoNodes() []*Node {
	return []*Node{
		{ID: 0, Name: "DDR5-L"},
		{ID: 1, Name: "CXL-A"},
	}
}

// PagesOnNode returns the indices of every page on the given node.
func (s *Space) PagesOnNode(node int) []int {
	return s.AppendPagesOnNode(nil, node)
}

// TestMembind pins the stand-in for numactl --membind: a 100 % split places
// every page on the CXL node.
func TestMembind(t *testing.T) {
	s := NewSpace(twoNodes(), NewDDRCXLSplit(100))
	s.Alloc(100)
	if s.PagesOn(1) != 100 || s.PagesOn(0) != 0 {
		t.Errorf("membind placed pages on wrong node: DDR=%d CXL=%d", s.PagesOn(0), s.PagesOn(1))
	}
	if s.Fraction(1) != 1 {
		t.Errorf("fraction = %v", s.Fraction(1))
	}
}

func TestWeightedExactSplit(t *testing.T) {
	for _, pct := range []float64{0, 25, 50, 63, 75, 100} {
		w := NewDDRCXLSplit(pct)
		s := NewSpace(twoNodes(), w)
		s.Alloc(10000)
		got := s.Fraction(1) * 100
		if math.Abs(got-pct) > 0.5 {
			t.Errorf("cxl=%v%%: realized %v%%", pct, got)
		}
	}
}

func TestWeightedSmoothness(t *testing.T) {
	// The deterministic scheduler must not bunch allocations: for a 50:50
	// split, any window of 10 pages holds 5±1 per node.
	w := NewDDRCXLSplit(50)
	s := NewSpace(twoNodes(), w)
	s.Alloc(1000)
	for start := 0; start+10 <= 1000; start += 10 {
		cxl := 0
		for i := start; i < start+10; i++ {
			if s.NodeOfPage(i) == 1 {
				cxl++
			}
		}
		if cxl < 4 || cxl > 6 {
			t.Fatalf("window at %d has %d CXL pages, want 5±1", start, cxl)
		}
	}
}

func TestWeightedRuntimeChangeAffectsOnlyNewPages(t *testing.T) {
	w := NewDDRCXLSplit(0)
	s := NewSpace(twoNodes(), w)
	s.Alloc(100)
	if err := w.SetCXLPercent(100); err != nil {
		t.Fatal(err)
	}
	s.Alloc(100)
	if s.PagesOn(1) != 100 {
		t.Errorf("new pages on CXL = %d, want 100", s.PagesOn(1))
	}
	for i := 0; i < 100; i++ {
		if s.NodeOfPage(i) != 0 {
			t.Fatalf("old page %d moved", i)
		}
	}
}

func TestWeightedCXLPercent(t *testing.T) {
	w := NewDDRCXLSplit(37)
	if got := w.CXLPercent(); math.Abs(got-37) > 1e-9 {
		t.Errorf("CXLPercent = %v", got)
	}
	// Clamping.
	if err := w.SetCXLPercent(150); err != nil {
		t.Fatal(err)
	}
	if got := w.CXLPercent(); got != 100 {
		t.Errorf("clamped CXLPercent = %v", got)
	}
	if err := w.SetCXLPercent(-5); err != nil {
		t.Fatal(err)
	}
	if got := w.CXLPercent(); got != 0 {
		t.Errorf("clamped CXLPercent = %v", got)
	}
}

func TestWeightedValidation(t *testing.T) {
	if err := NewWeighted([]float64{1}).SetWeights(nil); err == nil {
		t.Error("empty weights should error")
	}
	if err := NewWeighted([]float64{1}).SetWeights([]float64{-1, 2}); err == nil {
		t.Error("negative weight should error")
	}
	if err := NewWeighted([]float64{1}).SetWeights([]float64{0, 0}); err == nil {
		t.Error("zero-sum weights should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewDDRCXLSplit(120) should panic")
		}
	}()
	NewDDRCXLSplit(120)
}

func TestWeightedSplitProperty(t *testing.T) {
	// Property: for any percentage, the realized split over 1000 pages is
	// within 1 page-percent of the requested split.
	f := func(pRaw uint8) bool {
		pct := float64(pRaw % 101)
		w := NewDDRCXLSplit(pct)
		s := NewSpace(twoNodes(), w)
		s.Alloc(1000)
		return math.Abs(s.Fraction(1)*100-pct) <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpaceAddressMapping(t *testing.T) {
	s := NewSpace(twoNodes(), NewDDRCXLSplit(100))
	if first := s.Alloc(4); first != 0 {
		t.Errorf("first page = %d, want 0", first)
	}
	if first := s.Alloc(3); first != 4 {
		t.Errorf("second batch starts at page %d, want 4", first)
	}
	if s.Pages() != 7 {
		t.Errorf("pages=%d", s.Pages())
	}
	if s.NodeOfPage(0) != 1 || s.NodeOfPage(6) != 1 {
		t.Error("page mapping wrong")
	}
}

func TestSpaceMove(t *testing.T) {
	s := NewSpace(twoNodes(), NewDDRCXLSplit(100))
	s.Alloc(10)
	s.Move(3, 0)
	if s.NodeOfPage(3) != 0 {
		t.Error("page did not move")
	}
	if s.PagesOn(0) != 1 || s.PagesOn(1) != 9 {
		t.Errorf("counts after move: %d/%d", s.PagesOn(0), s.PagesOn(1))
	}
	// Moving to the same node is a no-op.
	s.Move(3, 0)
	if s.PagesOn(0) != 1 {
		t.Error("same-node move changed counts")
	}
}

func TestSpaceMoveCountInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSpace(twoNodes(), NewDDRCXLSplit(50))
		s.Alloc(64)
		for _, op := range ops {
			page := int(op) % 64
			to := int(op>>8) % 2
			s.Move(page, to)
		}
		return s.PagesOn(0)+s.PagesOn(1) == 64 &&
			math.Abs(s.Fraction(0)+s.Fraction(1)-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPagesOnNode(t *testing.T) {
	s := NewSpace(twoNodes(), NewDDRCXLSplit(50))
	s.Alloc(10)
	ddr := s.PagesOnNode(0)
	cxl := s.PagesOnNode(1)
	if len(ddr)+len(cxl) != 10 {
		t.Errorf("page lists cover %d pages", len(ddr)+len(cxl))
	}
	for _, p := range cxl {
		if s.NodeOfPage(p) != 1 {
			t.Errorf("page %d misclassified", p)
		}
	}
}

func TestSpaceValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"no nodes":   func() { NewSpace(nil, NewDDRCXLSplit(0)) },
		"sparse ids": func() { NewSpace([]*Node{{ID: 5}}, NewDDRCXLSplit(0)) },
		"nil policy": func() { NewSpace(twoNodes(), nil) },
		"neg alloc":  func() { s := NewSpace(twoNodes(), NewDDRCXLSplit(0)); s.Alloc(-1) },
		"bad move":   func() { s := NewSpace(twoNodes(), NewDDRCXLSplit(0)); s.Alloc(1); s.Move(0, 7) },
		"bad policy": func() { s := NewSpace(twoNodes(), NewWeighted([]float64{1, 1, 1})); s.Alloc(1) },
	} {
		func() {
			defer func() {
				// Every misuse gets a named panic, not a runtime fault.
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "numa: ") {
					t.Errorf("%s: expected a named numa panic, got %q", name, msg)
				}
			}()
			fn()
		}()
	}
}

func TestFractionEmptySpace(t *testing.T) {
	s := NewSpace(twoNodes(), NewDDRCXLSplit(0))
	if s.Fraction(0) != 0 {
		t.Error("empty space fraction should be 0")
	}
}

// refCounts steps a Weighted policy page at a time through Next and returns
// the per-node totals; the bulk path must reproduce it exactly.
func refCounts(w *Weighted, nodes, n int) []int64 {
	counts := make([]int64, nodes)
	for i := 0; i < n; i++ {
		counts[w.Next()]++
	}
	return counts
}

func TestWeightedTieBreakDeterminism(t *testing.T) {
	// Documented tie rule: equal credits go to the lowest node ID, so equal
	// weights degrade to plain round-robin starting at node 0.
	w := NewWeighted([]float64{1, 1, 1})
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	for i, wi := range want {
		if got := w.Next(); got != wi {
			t.Fatalf("step %d: got node %d, want %d", i, got, wi)
		}
	}
	// 2:1 from a fresh policy follows the documented smooth prefix.
	w = NewWeighted([]float64{2, 1})
	want = []int{0, 1, 0, 0, 1, 0}
	for i, wi := range want {
		if got := w.Next(); got != wi {
			t.Fatalf("2:1 step %d: got node %d, want %d", i, got, wi)
		}
	}
}

func TestWeightedPlaceNMatchesNext(t *testing.T) {
	rng := newTestRng(7)
	for trial := 0; trial < 100; trial++ {
		nodes := 1 + int(rng.next()%5)
		weights := make([]float64, nodes)
		for i := range weights {
			weights[i] = float64(rng.next() % 100)
		}
		weights[int(rng.next()%uint64(nodes))] += 1 // ensure positive sum
		a := NewWeighted(weights)
		b := NewWeighted(weights)
		n := int(rng.next() % 2000)
		dst := make([]uint8, n)
		counts := make([]int64, nodes)
		a.PlaceN(dst, counts)
		var placed [8]int64
		for i, id := range dst {
			if want := b.Next(); int(id) != want {
				t.Fatalf("trial %d page %d: PlaceN chose %d, Next chose %d", trial, i, id, want)
			}
			placed[id]++
		}
		for i := range counts {
			if counts[i] != placed[i] {
				t.Fatalf("trial %d: counts %v disagree with placements %v", trial, counts, placed[:nodes])
			}
		}
	}
}

func TestWeightedRuntimeWeightChangeKeepsPhase(t *testing.T) {
	// SetWeights with the same node count preserves credits: the bulk and
	// sequential schedulers must still agree across the change.
	a := NewWeighted([]float64{3, 1})
	b := NewWeighted([]float64{3, 1})
	a.PlaceN(make([]uint8, 17), make([]int64, 2))
	refCounts(b, 2, 17)
	if err := a.SetWeights([]float64{1, 5}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetWeights([]float64{1, 5}); err != nil {
		t.Fatal(err)
	}
	got := make([]int64, 2)
	a.PlaceN(make([]uint8, 1000), got)
	want := refCounts(b, 2, 1000)
	if got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("post-SetWeights counts %v != %v", got, want)
	}
}

func TestSpaceAllocBulkMatchesSequential(t *testing.T) {
	// Space.Alloc's bulk fill must place the identical per-page sequence
	// the page-at-a-time Next would, across batch boundaries.
	bulk := NewSpace(twoNodes(), NewDDRCXLSplit(37))
	seq := NewDDRCXLSplit(37)
	for _, n := range []int{1, 7, 250, 0, 64} {
		bulk.Alloc(n)
	}
	for i := 0; i < bulk.Pages(); i++ {
		if got, want := bulk.NodeOfPage(i), seq.Next(); got != want {
			t.Fatalf("page %d on node %d, sequential policy says %d", i, got, want)
		}
	}
}

func TestSpaceIndexStaysConsistentUnderMoves(t *testing.T) {
	s := NewSpace(twoNodes(), NewDDRCXLSplit(50))
	s.Alloc(200)
	_ = s.PagesOnNode(0) // force the index
	rng := newTestRng(3)
	for i := 0; i < 500; i++ {
		s.Move(int(rng.next()%200), int(rng.next()%2))
	}
	s.Alloc(50) // index must absorb post-build allocations too
	for node := 0; node < 2; node++ {
		pages := s.PagesOnNode(node)
		if int64(len(pages)) != s.PagesOn(node) {
			t.Fatalf("node %d: index has %d pages, counts say %d", node, len(pages), s.PagesOn(node))
		}
		for _, p := range pages {
			if s.NodeOfPage(p) != node {
				t.Fatalf("node %d: page %d misindexed", node, p)
			}
		}
	}
}

// testRng is a tiny local SplitMix64 so the tests don't depend on sim.
type testRng struct{ s uint64 }

func newTestRng(seed uint64) *testRng { return &testRng{s: seed} }

func (r *testRng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
