package service

import (
	"math"
	"sort"
	"testing"

	"hrwle/internal/machine"
)

// TestZipfDeterministic pins that two samplers built from the same
// parameters, fed by streams with the same seed, produce identical rank
// sequences — the property every shard-sweep determinism gate rests on.
func TestZipfDeterministic(t *testing.T) {
	for _, s := range []float64{0, 0.9, 1.2} {
		a, b := NewZipf(4096, s), NewZipf(4096, s)
		sa, sb := machine.NewStream(42), machine.NewStream(42)
		for i := 0; i < 10_000; i++ {
			ka, kb := a.Sample(sa), b.Sample(sb)
			if ka != kb {
				t.Fatalf("s=%v draw %d: %d vs %d", s, i, ka, kb)
			}
		}
	}
}

// TestZipfSeedSensitivity checks that distinct stream seeds give distinct
// sequences: a sampler that ignored its stream would still pass the
// determinism test.
func TestZipfSeedSensitivity(t *testing.T) {
	z := NewZipf(1<<16, 0.9)
	sa, sb := machine.NewStream(1), machine.NewStream(2)
	same := 0
	const draws = 2000
	for i := 0; i < draws; i++ {
		if z.Sample(sa) == z.Sample(sb) {
			same++
		}
	}
	// At s=0.9 over 64k ranks, collisions concentrate on the head but two
	// independent streams still disagree on the vast majority of draws.
	if same > draws/2 {
		t.Fatalf("seeds 1 and 2 agreed on %d/%d draws", same, draws)
	}
}

// TestZipfFrequency draws a large sample and compares empirical rank
// frequencies to the analytic pmf within a pinned tolerance band: the top
// ranks (where mass concentrates) must match to a few percent relative
// error, and the total variation distance over the whole support must be
// small. Tolerances have ~3x headroom over the observed error at this
// sample size, so the test fails on a wrong distribution, not on noise.
func TestZipfFrequency(t *testing.T) {
	const (
		n     = 1000
		draws = 400_000
	)
	for _, s := range []float64{0, 0.9, 1.2} {
		z := NewZipf(n, s)
		st := machine.NewStream(7)
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[z.Sample(st)]++
		}
		tv := 0.0
		for k := 0; k < n; k++ {
			emp := float64(counts[k]) / draws
			tv += math.Abs(emp - z.PMF(k))
		}
		tv /= 2
		if tv > 0.02 {
			t.Errorf("s=%v: total variation %.4f > 0.02", s, tv)
		}
		for k := 0; k < 10; k++ {
			emp := float64(counts[k]) / draws
			pmf := z.PMF(k)
			// 2% systematic band plus 5 binomial standard errors: tight on
			// the heavy head, sampling-noise-aware on near-uniform tails.
			tol := 0.02*pmf + 5*math.Sqrt(pmf*(1-pmf)/draws)
			if math.Abs(emp-pmf) > tol {
				t.Errorf("s=%v rank %d: empirical %.5f vs pmf %.5f (|err| > %.5f)",
					s, k, emp, pmf, tol)
			}
		}
	}
}

// TestZipfPMFSumsToOne sanity-checks the table normalization.
func TestZipfPMFSumsToOne(t *testing.T) {
	for _, s := range []float64{0, 0.5, 0.9, 1.2, 2} {
		z := NewZipf(257, s)
		sum := 0.0
		for k := 0; k < z.N(); k++ {
			sum += z.PMF(k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("s=%v: pmf sums to %v", s, sum)
		}
	}
}

// TestKeyedScheduleInvariance pins the keyed-demand isolation properties:
// (a) enabling keys does not change any pre-existing schedule field, and
// (b) changing CrossPct changes only which requests carry a secondary key,
// never the primary keys.
func TestKeyedScheduleInvariance(t *testing.T) {
	base := DefaultConfig("hashmap")
	base.Requests = 500
	base.Arrivals.RatePerSec = 1e6

	plain, err := GenerateSchedule(base)
	if err != nil {
		t.Fatal(err)
	}
	keyed := base
	keyed.Keys = KeyConfig{Universe: 1 << 12, Skew: 1.2, CrossPct: 10}
	withKeys, err := GenerateSchedule(keyed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		p, k := plain[i], withKeys[i]
		if p.ArriveAt != k.ArriveAt || p.Class != k.Class || p.IsWrite != k.IsWrite ||
			p.Work != k.Work || p.Footprint != k.Footprint || p.Seed != k.Seed {
			t.Fatalf("request %d: keyed demand perturbed the base schedule", i)
		}
		if p.Key != -1 || p.Key2 != -1 {
			t.Fatalf("request %d: keys assigned with keyed demand off", i)
		}
		if k.Key < 0 || k.Key >= 1<<12 {
			t.Fatalf("request %d: key %d outside universe", i, k.Key)
		}
		if k.Key2 != -1 && !k.IsWrite {
			t.Fatalf("request %d: secondary key on a read", i)
		}
	}

	noCross := keyed
	noCross.Keys.CrossPct = 0
	without, err := GenerateSchedule(noCross)
	if err != nil {
		t.Fatal(err)
	}
	anyCross := false
	for i := range withKeys {
		if withKeys[i].Key != without[i].Key {
			t.Fatalf("request %d: CrossPct shifted primary key %d -> %d",
				i, withKeys[i].Key, without[i].Key)
		}
		if without[i].Key2 != -1 {
			t.Fatalf("request %d: secondary key with CrossPct=0", i)
		}
		if withKeys[i].Key2 != -1 {
			anyCross = true
		}
	}
	if !anyCross {
		t.Fatal("CrossPct=10 produced no multi-key request in 500 arrivals")
	}
}

// uniformTable is the CDF table NewZipf built for s = 0 before uniform
// samplers dropped it: the running sum of math.Pow(k+1, -0), normalized,
// with the last entry pinned to 1.
func uniformTable(n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -0.0)
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1
	return cdf
}

// TestZipfUniformMatchesTable checks that the table-free uniform sampler
// returns, for every u, the rank a binary search of the old table
// returns, and that its CDF entries are the table's bit for bit. The u
// values are random draws plus every table entry and its neighbours one
// ulp either side, where an off-by-one step would show.
func TestZipfUniformMatchesTable(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 1000, 4096, 1 << 21, 3_000_017} {
		z, cdf := NewZipf(n, 0), uniformTable(n)
		if z.cdf != nil {
			t.Fatalf("n=%d: the uniform sampler built a table", n)
		}
		check := func(u float64) {
			if u < 0 || u >= 1 {
				return
			}
			want := min(sort.SearchFloat64s(cdf, u), n-1)
			if got := z.rank(u); got != want {
				t.Fatalf("n=%d u=%v: rank %d, the table gives %d", n, u, got, want)
			}
		}
		for k, c := range cdf {
			if got := z.cdfAt(k); got != c {
				t.Fatalf("n=%d: cdfAt(%d) = %v, the table holds %v", n, k, got, c)
			}
			check(math.Nextafter(c, 0))
			check(c)
			check(math.Nextafter(c, 2))
		}
		st := machine.NewStream(uint64(n))
		for i := 0; i < 100_000; i++ {
			check(st.Float64())
		}
		check(0)
	}
}

// TestKeySamplerMemo checks the one-entry memo of skewed samplers: the
// same universe and skew share one table, another universe or skew gets
// its own, and a uniform sampler neither uses nor evicts the memo.
func TestKeySamplerMemo(t *testing.T) {
	a := keySampler(1000, 1.2)
	if keySampler(1000, 1.2) != a {
		t.Error("the same universe and skew built a second table")
	}
	if u := keySampler(1000, 0); u.cdf != nil || u.S() != 0 {
		t.Error("a uniform sampler came with a table")
	}
	if keySampler(1000, 1.2) != a {
		t.Error("a uniform sampler evicted the memoized table")
	}
	for _, c := range []struct {
		n int
		s float64
	}{{1000, 0.9}, {999, 1.2}} {
		if z := keySampler(c.n, c.s); z == a || z.N() != c.n || z.S() != c.s {
			t.Errorf("keySampler(%d, %v) returned the sampler of (%d, %v)", c.n, c.s, z.N(), z.S())
		}
	}
}
