// Package numa models the OS view of the evaluated system's memory: NUMA
// nodes backed by memory devices, a paged address space, and the N:M
// weighted-interleave mempolicy the paper places pages with (§5), with a
// runtime-adjustable percentage of pages allocated to CXL memory — the knob
// Caption turns. A 0 % or 100 % split stands in for numactl --membind.
//
// Allocation is the hot path of every experiment regeneration, so
// Space.Alloc places a whole batch through Weighted.PlaceN with a single
// lock acquisition (see DESIGN.md §4).
package numa

import (
	"fmt"
	"sync"
)

// PageBytes is the OS page size.
const PageBytes = 4096

// Node is one NUMA node: a name and the device it is backed by. The zero
// node in every experiment is local DDR; CXL memory appears as a CPU-less
// node, exactly as the real kernel exposes it.
type Node struct {
	// ID is the node number the policy's weights are indexed by.
	ID int
	// Name matches the backing device ("DDR5-L", "CXL-A", ...).
	Name string
}

// weightScale is the fixed-point resolution of Weighted: weights are stored
// as integer shares summing to weightScale, so scheduling is exact,
// reproducible integer arithmetic. Requested weights are honored to within
// 1/weightScale of their normalized value.
const weightScale = 1 << 16

// Weighted implements the N:M weighted-interleave mempolicy (the kernel
// patch the paper uses to place, e.g., 25 % of pages on the CXL node). It is
// safe for concurrent use and the weights can be changed at runtime: changes
// affect only future allocations, exactly like the real mempolicy — this is
// the interface Caption's tuner drives.
//
// Scheduling is deterministic smooth weighted interleave: node i's next page
// is pending at time (S − 2·c_i)/(2·w_i) — S the fixed-point scale, w_i the
// node's integer share, c_i its credit — and every step picks the earliest
// pending time. Ties are broken toward the lowest node ID, and zero-weight
// nodes are never chosen. Over any window the realized split tracks the
// weights to within one page per node; equal weights degrade to plain
// round-robin starting at node 0.
type Weighted struct {
	mu      sync.Mutex
	weights []int64   // fixed-point shares, sum == weightScale
	credit  []int64   // same fixed-point units
	norm    []float64 // normalized requested weights, for reporting
}

// NewWeighted creates a weighted-interleave policy over len(weights) nodes.
// Weights are relative; they must be non-negative with a positive sum.
func NewWeighted(weights []float64) *Weighted {
	w := &Weighted{}
	if err := w.SetWeights(weights); err != nil {
		panic(err)
	}
	return w
}

// NewDDRCXLSplit builds the common two-node policy with the given percentage
// of pages on the CXL node (node 1); the remainder goes to DDR (node 0).
func NewDDRCXLSplit(cxlPercent float64) *Weighted {
	if cxlPercent < 0 || cxlPercent > 100 {
		panic(fmt.Sprintf("numa: CXL percent %v out of [0,100]", cxlPercent))
	}
	return NewWeighted([]float64{100 - cxlPercent, cxlPercent})
}

// SetWeights atomically replaces the weights (future allocations only).
// Credits — and with them the smooth phase of the schedule — carry over when
// the node count is unchanged, as in the kernel mempolicy.
func (w *Weighted) SetWeights(weights []float64) error {
	if len(weights) == 0 {
		return fmt.Errorf("numa: empty weights")
	}
	sum := 0.0
	for i, v := range weights {
		if v < 0 {
			return fmt.Errorf("numa: negative weight %v at node %d", v, i)
		}
		sum += v
	}
	if sum <= 0 {
		return fmt.Errorf("numa: weights sum to zero")
	}
	norm := make([]float64, len(weights))
	for i, v := range weights {
		norm[i] = v / sum
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.norm = norm
	w.weights = quantize(norm, w.weights)
	if len(w.credit) != len(weights) {
		w.credit = make([]int64, len(weights))
	}
	return nil
}

// quantize converts normalized weights into integer shares summing to
// weightScale using largest-remainder rounding (ties toward the lowest node
// ID). A node keeps a zero share only if its requested weight rounds below
// half a share; every positive requested weight of at least 1/weightScale of
// the total is representable.
func quantize(norm []float64, reuse []int64) []int64 {
	out := reuse
	if len(out) != len(norm) {
		out = make([]int64, len(norm))
	}
	total := int64(0)
	rem := make([]float64, len(norm))
	for i, v := range norm {
		exact := v * weightScale
		fl := int64(exact)
		out[i] = fl
		rem[i] = exact - float64(fl)
		total += fl
	}
	for total < weightScale {
		best := -1
		for i, r := range rem {
			if norm[i] > 0 && (best < 0 || r > rem[best]) {
				best = i
			}
		}
		out[best]++
		rem[best] = -1
		total++
	}
	return out
}

// SetCXLPercent adjusts a two-node policy's CXL share (node 1).
func (w *Weighted) SetCXLPercent(p float64) error {
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	return w.SetWeights([]float64{100 - p, p})
}

// CXLPercent reports the current CXL share of a two-node policy.
func (w *Weighted) CXLPercent() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.norm) < 2 {
		return 0
	}
	return w.norm[1] * 100
}

// step performs one scheduling step: the node whose next pending time
// (weightScale − 2·credit)/(2·weight) is smallest wins, ties to the lowest
// node ID; then every credit grows by its weight and the winner is charged
// one whole share. Caller holds w.mu.
func (w *Weighted) step() int {
	best := -1
	var bestNum, bestW int64
	for i, wt := range w.weights {
		if wt == 0 {
			continue
		}
		num := weightScale - 2*w.credit[i]
		// x_i < x_best  ⟺  num_i·w_best < num_best·w_i (weights positive).
		if best < 0 || num*bestW < bestNum*wt {
			best, bestNum, bestW = i, num, wt
		}
	}
	for i, wt := range w.weights {
		w.credit[i] += wt
	}
	w.credit[best] -= weightScale
	return best
}

// Next returns the node for the next page: one step of the schedule that
// PlaceN runs in bulk.
func (w *Weighted) Next() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.step()
}

// PlaceN writes the node of each of the next len(dst) pages into dst — the
// same sequence len(dst) Next calls would produce — and adds per-node totals
// to counts. It takes one lock acquisition and runs a tight integer loop
// (the two-node DDR:CXL case — every application experiment — runs
// branch-light and inlined). It panics if the policy spans more nodes than
// counts has entries.
func (w *Weighted) PlaceN(dst []uint8, counts []int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.weights) > len(counts) {
		panic(fmt.Sprintf("numa: policy over %d nodes placing into %d", len(w.weights), len(counts)))
	}
	if len(w.weights) == 2 {
		w0, w1 := w.weights[0], w.weights[1]
		c0, c1 := w.credit[0], w.credit[1]
		var n1 int64
		switch {
		case w1 == 0:
			for i := range dst {
				dst[i] = 0
			}
		case w0 == 0:
			for i := range dst {
				dst[i] = 1
			}
			n1 = int64(len(dst))
		default:
			for i := range dst {
				// Node 1 wins on a strictly earlier pending time; ties go
				// to node 0 (same rule as step, specialized to two nodes).
				if (weightScale-2*c1)*w0 < (weightScale-2*c0)*w1 {
					dst[i] = 1
					c0 += w0
					c1 += w1 - weightScale
					n1++
				} else {
					dst[i] = 0
					c0 += w0 - weightScale
					c1 += w1
				}
			}
		}
		w.credit[0], w.credit[1] = c0, c1
		counts[0] += int64(len(dst)) - n1
		counts[1] += n1
		return
	}
	for i := range dst {
		id := w.step()
		dst[i] = uint8(id)
		counts[id]++
	}
}

// Space is a paged address space with per-page node placement.
type Space struct {
	nodes  []*Node
	policy *Weighted
	pages  []uint8 // node ID per page
	counts []int64 // pages per node

	// byNode holds per-node page indices, built lazily on the first call
	// that needs them (migration policies) and maintained incrementally
	// afterwards; pos is each page's position within its node's list.
	byNode [][]int32
	pos    []int32
}

// NewSpace creates an empty address space over the given nodes with the
// given allocation policy.
func NewSpace(nodes []*Node, policy *Weighted) *Space {
	if len(nodes) == 0 || len(nodes) > 256 {
		panic("numa: need between 1 and 256 nodes")
	}
	for i, n := range nodes {
		if n.ID != i {
			panic(fmt.Sprintf("numa: node %d has ID %d; IDs must be dense", i, n.ID))
		}
	}
	if policy == nil {
		panic("numa: nil policy")
	}
	return &Space{nodes: nodes, policy: policy, counts: make([]int64, len(nodes))}
}

// Alloc extends the space by n pages placed per the policy and returns the
// index of the first new page. The page store is grown once and the policy
// places the whole batch in one PlaceN call.
func (s *Space) Alloc(n int) int {
	if n < 0 {
		panic("numa: negative allocation")
	}
	first := len(s.pages)
	if cap(s.pages) < first+n {
		// One allocation for the batch, with doubling headroom so
		// incremental callers keep append's amortized O(1) growth.
		newCap := first + n
		if doubled := 2 * cap(s.pages); doubled > newCap {
			newCap = doubled
		}
		grown := make([]uint8, first, newCap)
		copy(grown, s.pages)
		s.pages = grown
	}
	s.pages = s.pages[: first+n : cap(s.pages)]

	s.policy.PlaceN(s.pages[first:], s.counts)
	if s.byNode != nil {
		s.indexPages(first)
	}
	return first
}

// Pages returns the number of allocated pages.
func (s *Space) Pages() int { return len(s.pages) }

// NodeOfPage returns the node holding page i.
func (s *Space) NodeOfPage(i int) int {
	return int(s.pages[i])
}

// Fraction returns the fraction of pages on the given node (0 when empty).
func (s *Space) Fraction(node int) float64 {
	if len(s.pages) == 0 {
		return 0
	}
	return float64(s.counts[node]) / float64(len(s.pages))
}

// PagesOn returns the number of pages on the given node.
func (s *Space) PagesOn(node int) int64 { return s.counts[node] }

// Move migrates page i to the given node (the mechanism under TPP).
func (s *Space) Move(i, to int) {
	if to < 0 || to >= len(s.nodes) {
		panic(fmt.Sprintf("numa: move to invalid node %d", to))
	}
	from := int(s.pages[i])
	if from == to {
		return
	}
	s.pages[i] = uint8(to)
	s.counts[from]--
	s.counts[to]++
	if s.byNode != nil {
		// Swap-remove from the old node's list, append to the new one.
		list := s.byNode[from]
		p := s.pos[i]
		last := list[len(list)-1]
		list[p] = last
		s.pos[last] = p
		s.byNode[from] = list[:len(list)-1]
		s.pos[i] = int32(len(s.byNode[to]))
		s.byNode[to] = append(s.byNode[to], int32(i))
	}
}

// buildIndex constructs the per-node page lists from scratch.
func (s *Space) buildIndex() {
	s.byNode = make([][]int32, len(s.nodes))
	for id, c := range s.counts {
		s.byNode[id] = make([]int32, 0, c)
	}
	s.pos = make([]int32, 0, cap(s.pages))
	s.indexPages(0)
}

// indexPages appends pages [from, len) to the per-node lists.
func (s *Space) indexPages(from int) {
	for i := from; i < len(s.pages); i++ {
		id := s.pages[i]
		s.pos = append(s.pos, int32(len(s.byNode[id])))
		s.byNode[id] = append(s.byNode[id], int32(i))
	}
}

// AppendPagesOnNode appends the index of every page on the given node to dst
// and returns it — O(pages on node) from the maintained per-node index (the
// first call pays a one-time O(pages) index build). The order is arbitrary
// but deterministic. Migration policies pass a reused buffer to stay
// allocation-free across scans.
func (s *Space) AppendPagesOnNode(dst []int, node int) []int {
	if s.byNode == nil {
		s.buildIndex()
	}
	list := s.byNode[node]
	if need := len(dst) + len(list); cap(dst) < need {
		grown := make([]int, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for _, p := range list {
		dst = append(dst, int(p))
	}
	return dst
}
