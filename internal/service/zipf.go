package service

import (
	"fmt"
	"math"
	"sort"

	"hrwle/internal/machine"
)

// Zipf samples ranks in [0, n) with P(k) ∝ 1/(k+1)^s — rank 0 is the
// hottest key. The sampler is exact for every s ≥ 0 (s = 0 degenerates to
// uniform): for s > 0 the normalized CDF is precomputed once and each draw
// is one Float64 plus a binary search. The O(n) table costs 8 bytes per
// rank, which at the multi-million-key universes the shard workload uses
// is a few MB per measurement point. A uniform sampler needs no table: it
// computes each CDF entry on demand (cdfAt), bit-for-bit equal to the
// entry the table would hold, and finds the rank from its estimate u·n.
//
// Rejection-style samplers (as in math/rand's Zipf) need s > 1 and would
// exclude the s = 0.9 sweep point; the table is exact at any exponent and
// keeps the draw count per sample fixed at one, which the determinism
// tests pin.
type Zipf struct {
	n   int
	s   float64
	cdf []float64 // cdf[k] = P(X ≤ k); cdf[n-1] == 1 by construction; nil when s = 0
}

// checkSkew reports whether s is a usable Zipf exponent: finite and ≥ 0.
func checkSkew(s float64) error {
	if !(s >= 0) || math.IsInf(s, 1) {
		return fmt.Errorf("service: key skew %v (want a finite exponent ≥ 0)", s)
	}
	return nil
}

// NewZipf builds a sampler over ranks [0, n) with exponent s. Configs
// reach it only through validation (Config.Normalize, GenerateSchedule),
// so a bad n or s here is a caller bug and panics.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("service: Zipf universe %d (want > 0)", n))
	}
	if err := checkSkew(s); err != nil {
		panic(err.Error())
	}
	z := &Zipf{n: n, s: s}
	if s == 0 {
		return z
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1 // normalization rounding must not leave a reachable gap
	z.cdf = cdf
	return z
}

// N returns the universe size.
func (z *Zipf) N() int { return z.n }

// S returns the exponent.
func (z *Zipf) S() float64 { return z.s }

// cdfAt returns P(X ≤ k). Without a table (s = 0) it computes the entry
// the table would hold: every term of the running sum is math.Pow(x, -0)
// = 1, so the sum is exactly k+1, the normalizer is 1/n, and the last
// entry is pinned to 1.
func (z *Zipf) cdfAt(k int) float64 {
	switch {
	case z.cdf != nil:
		return z.cdf[k]
	case k == z.n-1:
		return 1
	}
	return float64(k+1) * (1 / float64(z.n))
}

// PMF returns the analytic probability of rank k (tests compare empirical
// frequencies against it).
func (z *Zipf) PMF(k int) float64 {
	if k == 0 {
		return z.cdfAt(0)
	}
	return z.cdfAt(k) - z.cdfAt(k-1)
}

// Sample draws one rank from the stream: exactly one Float64 per call.
func (z *Zipf) Sample(st *machine.Stream) int {
	return z.rank(st.Float64())
}

// rank returns the smallest k with cdfAt(k) ≥ u, for u in [0, 1).
func (z *Zipf) rank(u float64) int {
	if z.cdf != nil {
		return min(sort.SearchFloat64s(z.cdf, u), z.n-1)
	}
	// The CDF is nondecreasing and u·n is within a step of the answer:
	// walk down while the previous entry still covers u, then up until
	// this one does (the last entry, 1, always does).
	k := min(int(u*float64(z.n)), z.n-1)
	for k > 0 && z.cdfAt(k-1) >= u {
		k--
	}
	for z.cdfAt(k) < u {
		k++
	}
	return k
}
