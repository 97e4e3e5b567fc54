// Skewed page selection without math.Pow in the reference hot loop.
//
// The skewed component of every profile maps a uniform draw u ∈ [0,1) to a
// page via page(u) = ⌊footprint · u^SkewExp⌋ (clamped to footprint-1). That
// map is a step function with at most `footprint` steps, so instead of
// evaluating math.Pow per reference we precompute, once per (footprint,
// SkewExp) pair, the exact float64 boundary at which each step begins, and
// answer queries by counting the boundaries at or below the draw.
//
// The boundaries are found by bisection over the *bit patterns* of the
// candidate floats: non-negative float64s are ordered identically to their
// bit patterns, so bisecting on bits visits every representable value in
// [0,1] and converges to the exact smallest u with page(u) ≥ p — there is no
// epsilon, and the tabled path reproduces the pow path bit-for-bit (the
// equivalence is enforced by tests and by the byte-diffed golden report).
// A guide index over 2^g equal buckets of [0,1) narrows each query to the
// few boundaries inside the draw's bucket, so a query costs a multiply and
// a short scan. Construction costs ~64 pow
// evaluations per boundary and the tables are shared globally, so a
// profile's table is built once per process.
package workload

import (
	"math"
	"math/bits"
	"sync"
)

// skewTableMaxPages bounds table construction: a profile with a footprint
// beyond this (none in the catalog; the largest is 14336 pages) falls back
// to the direct pow path rather than building a multi-megabyte table.
const skewTableMaxPages = 1 << 20

// skewedPagePow is the original direct evaluation: the page for draw u under
// (footprint, k) popularity skew. It remains the reference implementation —
// skewTable must agree with it on every representable u — and the fallback
// for untabled footprints.
func skewedPagePow(footprint uint64, k, u float64) uint64 {
	page := uint64(float64(footprint) * math.Pow(u, k))
	if page >= footprint {
		page = footprint - 1
	}
	return page
}

// skewTable answers page(u) queries for one (footprint, SkewExp) pair.
type skewTable struct {
	footprint uint64
	// bounds[i] is the exact smallest float64 u with
	// uint64(footprint·u^k) ≥ i+1. Pages unreachable by any u < 1 have no
	// entry (the array simply ends early).
	bounds []float64
	// guide[b] is the number of bounds ≤ b/scale, for b in [0, scale];
	// scale is a power of two no smaller than len(bounds).
	guide []uint32
	scale float64
}

// page returns the page for draw u, bit-identical to
// skewedPagePow(t.footprint, k, u).
func (t *skewTable) page(u float64) uint64 {
	// The number of boundaries ≤ u is exactly uint64(footprint·u^k): the
	// same value the direct formula computes. Scaling by a power of two is
	// exact, so b/scale ≤ u < (b+1)/scale and that count lies between
	// guide[b] and guide[b+1]: only the bounds in between need a compare.
	b := int(u * t.scale)
	p, end := t.guide[b], t.guide[b+1]
	for p < end && t.bounds[p] <= u {
		p++
	}
	if uint64(p) >= t.footprint {
		return t.footprint - 1
	}
	return uint64(p)
}

type skewKey struct {
	footprint uint64
	k         float64
}

var (
	skewMu     sync.Mutex
	skewTables = map[skewKey]*skewTable{}
)

// skewTableFor returns the shared table for (footprint, k), building it on
// first use. It returns nil when the profile is uniform (k ≤ 1, where the
// generator uses an unbiased bounded draw instead) or the footprint exceeds
// the table bound.
func skewTableFor(footprint uint64, k float64) *skewTable {
	if k <= 1 || footprint == 0 || footprint > skewTableMaxPages {
		return nil
	}
	key := skewKey{footprint: footprint, k: k}
	skewMu.Lock()
	defer skewMu.Unlock()
	if t, ok := skewTables[key]; ok {
		return t
	}
	t := buildSkewTable(footprint, k)
	skewTables[key] = t
	return t
}

// buildSkewTable bisects out the step boundaries of u ↦ uint64(footprint·u^k).
func buildSkewTable(footprint uint64, k float64) *skewTable {
	fpf := float64(footprint)
	stepAt := func(bits uint64) uint64 {
		return uint64(fpf * math.Pow(math.Float64frombits(bits), k))
	}
	one := math.Float64bits(1.0)
	t := &skewTable{footprint: footprint, bounds: make([]float64, 0, footprint)}
	lo := uint64(0) // invariant: stepAt(lo) < p
	for p := uint64(1); p <= footprint; p++ {
		if stepAt(one) < p {
			break // p unreachable even at u = 1; so is everything after it
		}
		// Smallest bits b in (lo, one] with stepAt(b) ≥ p. The function is
		// monotone in u for k > 0, so boundaries are found in order and lo
		// carries over from the previous page.
		hi := one // invariant: stepAt(hi) ≥ p
		for lo+1 < hi {
			mid := lo + (hi-lo)/2
			if stepAt(mid) >= p {
				hi = mid
			} else {
				lo = mid
			}
		}
		if hi == one {
			break // only u = 1 itself reaches p, and Float64() never draws 1
		}
		t.bounds = append(t.bounds, math.Float64frombits(hi))
		lo = hi - 1 // stepAt(hi-1) < p ≤ stepAt(next boundary)
	}
	g := bits.Len(uint(len(t.bounds)))
	t.scale = math.Ldexp(1, g)
	t.guide = make([]uint32, 1<<g+1)
	n := 0
	for b := range t.guide {
		edge := math.Ldexp(float64(b), -g)
		for n < len(t.bounds) && t.bounds[n] <= edge {
			n++
		}
		t.guide[b] = uint32(n)
	}
	return t
}
