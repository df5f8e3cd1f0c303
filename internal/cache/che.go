package cache

import "math"

// Che's approximation for LRU caches under the independent reference model:
// an item with access probability p is in the cache with probability
// 1 - exp(-p*T), where the characteristic time T solves
//
//	sum_i (1 - exp(-p_i * T)) = C   (C = capacity in items).
//
// The analytic application models (DLRM embedding tables, Redis working
// sets) use this instead of simulating billions of accesses; the full
// Hierarchy simulator cross-checks it in tests.

// ZipfWeights returns normalized zipfian popularity weights for n items with
// exponent s, bucketed logarithmically so n can be very large. Each bucket
// covers ranks [lo, hi) with a representative per-item probability.
type zipfBucket struct {
	count int     // items in the bucket
	p     float64 // per-item access probability
}

func zipfBuckets(n int, s float64) []zipfBucket {
	if n <= 0 {
		panic("cache: zipfBuckets with non-positive n")
	}
	// Exact ranks for the head, geometric buckets for the tail.
	const exactHead = 1024
	var buckets []zipfBucket
	var norm float64
	addBucket := func(lo, hi int) { // ranks [lo, hi), 1-based
		mid := math.Sqrt(float64(lo) * float64(hi-1)) // geometric mid-rank
		w := math.Pow(mid, -s)
		buckets = append(buckets, zipfBucket{count: hi - lo, p: w})
		norm += w * float64(hi-lo)
	}
	rank := 1
	for rank <= n && rank <= exactHead {
		w := math.Pow(float64(rank), -s)
		buckets = append(buckets, zipfBucket{count: 1, p: w})
		norm += w
		rank++
	}
	for rank <= n {
		hi := rank + rank/8 + 1 // ~12% geometric growth
		if hi > n+1 {
			hi = n + 1
		}
		addBucket(rank, hi)
		rank = hi
	}
	for i := range buckets {
		buckets[i].p /= norm
	}
	return buckets
}

// ZipfLRUHitRate returns the aggregate hit probability of an LRU cache with
// capacityItems slots serving requests drawn zipf(s) over n equally sized
// items, per Che's approximation. It returns values in [0, 1]; a capacity of
// zero or below yields 0 and capacity >= n yields ~1.
func ZipfLRUHitRate(n int, s float64, capacityItems int) float64 {
	if capacityItems <= 0 || n <= 0 {
		return 0
	}
	if capacityItems >= n {
		return 1
	}
	buckets := zipfBuckets(n, s)
	occupancy := func(t float64) float64 {
		sum := 0.0
		for _, b := range buckets {
			sum += float64(b.count) * (1 - math.Exp(-b.p*t))
		}
		return sum
	}
	// Solve occupancy(T) = capacity by bisection on a bracketed range.
	lo, hi := 0.0, 1.0
	for occupancy(hi) < float64(capacityItems) && hi < 1e18 {
		hi *= 2
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if occupancy(mid) < float64(capacityItems) {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (lo + hi) / 2
	// Aggregate hit rate: sum_i p_i * (1 - exp(-p_i T)).
	hit := 0.0
	for _, b := range buckets {
		hit += float64(b.count) * b.p * (1 - math.Exp(-b.p*t))
	}
	if hit < 0 {
		return 0
	}
	if hit > 1 {
		return 1
	}
	return hit
}

// UniformLRUHitRate returns the hit rate of an LRU cache under uniform
// popularity: simply capacity/n clamped to [0, 1] (Che's approximation
// degenerates to this).
func UniformLRUHitRate(n int, capacityItems int) float64 {
	if n <= 0 || capacityItems <= 0 {
		return 0
	}
	r := float64(capacityItems) / float64(n)
	if r > 1 {
		return 1
	}
	return r
}

// WorkingSetHitRate estimates the hit rate for an application with the given
// working-set bytes running over a cache of capacityBytes with zipfian reuse
// skew s. It converts byte quantities to line-granularity items. This is the
// entry point used by the workload models.
func WorkingSetHitRate(workingSetBytes, capacityBytes int64, s float64) float64 {
	if workingSetBytes <= 0 {
		return 1
	}
	n := int(workingSetBytes / LineBytes)
	if n == 0 {
		n = 1
	}
	c := int(capacityBytes / LineBytes)
	if s <= 0 {
		return UniformLRUHitRate(n, c)
	}
	return ZipfLRUHitRate(n, s, c)
}
