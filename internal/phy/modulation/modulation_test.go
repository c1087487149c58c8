package modulation

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

var schemes = []Scheme{QPSK, QAM16, QAM64}

func TestBitsAndPoints(t *testing.T) {
	want := map[Scheme][2]int{QPSK: {2, 4}, QAM16: {4, 16}, QAM64: {6, 64}}
	for s, w := range want {
		if s.Bits() != w[0] || s.Points() != w[1] {
			t.Errorf("%v: (%d,%d), want (%d,%d)", s, s.Bits(), s.Points(), w[0], w[1])
		}
	}
}

func TestUnitAveragePower(t *testing.T) {
	// Every LTE constellation is normalised to unit average energy.
	for _, s := range schemes {
		var sum float64
		tab := s.Constellation()
		for _, pt := range tab {
			sum += real(pt)*real(pt) + imag(pt)*imag(pt)
		}
		avg := sum / float64(len(tab))
		if math.Abs(avg-1) > 1e-12 {
			t.Errorf("%v: average energy %g, want 1", s, avg)
		}
	}
}

func TestConstellationPointsDistinct(t *testing.T) {
	for _, s := range schemes {
		tab := s.Constellation()
		for i := 0; i < len(tab); i++ {
			for j := i + 1; j < len(tab); j++ {
				if cmplx.Abs(tab[i]-tab[j]) < 1e-9 {
					t.Errorf("%v: points %d and %d coincide at %v", s, i, j, tab[i])
				}
			}
		}
	}
}

// TestGrayMapping checks the defining Gray property: nearest neighbours in
// the constellation differ in exactly one bit.
func TestGrayMapping(t *testing.T) {
	for _, s := range schemes {
		tab := s.Constellation()
		// Find the minimum distance, then check all pairs at that distance.
		minD := math.Inf(1)
		for i := range tab {
			for j := i + 1; j < len(tab); j++ {
				if d := cmplx.Abs(tab[i] - tab[j]); d < minD {
					minD = d
				}
			}
		}
		for i := range tab {
			for j := i + 1; j < len(tab); j++ {
				if cmplx.Abs(tab[i]-tab[j]) < minD*1.001 {
					diff := i ^ j
					if diff&(diff-1) != 0 {
						t.Errorf("%v: neighbours %06b and %06b differ in >1 bit", s, i, j)
					}
				}
			}
		}
	}
}

func TestKnownQPSKPoints(t *testing.T) {
	// 36.211 Table 7.1.2-1: bits 00 -> (1+j)/sqrt(2), 11 -> (-1-j)/sqrt(2).
	tab := QPSK.Constellation()
	r := 1 / math.Sqrt2
	cases := map[int]complex128{
		0b00: complex(r, r), 0b01: complex(r, -r),
		0b10: complex(-r, r), 0b11: complex(-r, -r),
	}
	for idx, want := range cases {
		if cmplx.Abs(tab[idx]-want) > 1e-12 {
			t.Errorf("QPSK[%02b] = %v, want %v", idx, tab[idx], want)
		}
	}
}

func TestKnown16QAMPoint(t *testing.T) {
	// 36.211 Table 7.1.3-1: bits 0000 -> (1+j)/sqrt(10),
	// 1011 -> (-3+3j)/sqrt(10) (b0 = I sign, b2 = I magnitude,
	// b1 = Q sign, b3 = Q magnitude), 0111 -> (3-3j)/sqrt(10).
	tab := QAM16.Constellation()
	r := 1 / math.Sqrt(10)
	if want := complex(r, r); cmplx.Abs(tab[0b0000]-want) > 1e-12 {
		t.Errorf("16QAM[0000] = %v, want %v", tab[0], want)
	}
	if want := complex(-3*r, 3*r); cmplx.Abs(tab[0b1011]-want) > 1e-12 {
		t.Errorf("16QAM[1011] = %v, want %v", tab[0b1011], want)
	}
	if want := complex(3*r, -3*r); cmplx.Abs(tab[0b0111]-want) > 1e-12 {
		t.Errorf("16QAM[0111] = %v, want %v", tab[0b0111], want)
	}
}

func TestMapDemapRoundTripNoiseless(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range schemes {
		q := s.Bits()
		bits := make([]uint8, 120*q)
		for i := range bits {
			bits[i] = uint8(rng.Intn(2))
		}
		syms := s.Map(nil, bits)
		if len(syms) != 120 {
			t.Fatalf("%v: %d symbols, want 120", s, len(syms))
		}
		llr := s.Demap(nil, syms, 0.01)
		got := HardDecide(nil, llr)
		for i := range bits {
			if got[i] != bits[i] {
				t.Fatalf("%v: bit %d decoded %d, want %d", s, i, got[i], bits[i])
			}
		}
	}
}

// TestDemapLLRSign is a property test: with moderate noise the hard
// decision from LLRs must match the minimum-distance decision.
func TestDemapLLRSign(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := schemes[rng.Intn(len(schemes))]
		y := complex(rng.NormFloat64(), rng.NormFloat64())
		llr := s.Demap(nil, []complex128{y}, 0.5)
		bits := HardDecide(nil, llr)
		// Minimum-distance decision.
		best, bestD := 0, math.Inf(1)
		for idx, pt := range s.Constellation() {
			if d := cmplx.Abs(y - pt); d < bestD {
				best, bestD = idx, d
			}
		}
		q := s.Bits()
		for b := 0; b < q; b++ {
			want := uint8(best>>uint(q-1-b)) & 1
			if bits[b] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLLRScalesWithNoise verifies LLR magnitude shrinks as noise grows —
// the property the turbo decoder relies on to weight soft inputs.
func TestLLRScalesWithNoise(t *testing.T) {
	y := []complex128{complex(0.9, 0.2)}
	lo := QAM64.Demap(nil, y, 0.1)
	hi := QAM64.Demap(nil, y, 1.0)
	for b := range lo {
		if math.Abs(lo[b]) < math.Abs(hi[b])-1e-12 {
			t.Errorf("bit %d: |LLR| did not shrink with more noise (%g vs %g)", b, lo[b], hi[b])
		}
	}
}

func TestBERUnderAWGN(t *testing.T) {
	// At 15 dB SNR, QPSK over AWGN should be error-free in a short run and
	// 64-QAM should have a low but possibly nonzero BER. This is a sanity
	// check of the whole map/demap chain under noise.
	rng := rand.New(rand.NewSource(7))
	const n = 4000
	snr := math.Pow(10, 15.0/10) // 15 dB
	noiseVar := 1 / snr
	sigma := math.Sqrt(noiseVar / 2)
	for _, s := range schemes {
		q := s.Bits()
		bits := make([]uint8, n*q)
		for i := range bits {
			bits[i] = uint8(rng.Intn(2))
		}
		syms := s.Map(nil, bits)
		for i := range syms {
			syms[i] += complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
		}
		got := HardDecide(nil, s.Demap(nil, syms, noiseVar))
		errs := 0
		for i := range bits {
			if got[i] != bits[i] {
				errs++
			}
		}
		ber := float64(errs) / float64(len(bits))
		// 64-QAM at 15 dB Es/N0 sits around 6-7% raw BER analytically.
		limit := map[Scheme]float64{QPSK: 1e-4, QAM16: 5e-3, QAM64: 9e-2}[s]
		if ber > limit {
			t.Errorf("%v: BER %g at 15 dB exceeds %g", s, ber, limit)
		}
	}
}

// exhaustive is the single oracle for the closed-form kernel: a full scan
// of all 2^Q constellation points per symbol in T arithmetic, the
// definition of the max-log LLR and of the nearest point with no structure
// assumed. Besides the LLRs it returns each symbol's squared distance to
// the nearest and to the farthest point (the scale LLR rounding lives on),
// and per bit whether the two hypothesis distances agree to 4 ulp: the
// other axis' distance is part of both, so far out on it the scan cannot
// resolve a decision however far the symbol is from the boundary.
func exhaustive[T float](s Scheme, re, im []T, noiseVar T) (llr, nearest, farthest []T, tied []bool) {
	q := s.Bits()
	tab := s.Constellation()
	inf := T(math.Inf(1))
	for i := range re {
		var d0, d1 [6]T
		for b := 0; b < q; b++ {
			d0[b], d1[b] = inf, inf
		}
		near, far := inf, T(0)
		for idx, pt := range tab {
			dr := re[i] - T(real(pt))
			di := im[i] - T(imag(pt))
			d := dr*dr + di*di
			near, far = min(near, d), max(far, d)
			for b := 0; b < q; b++ {
				if idx&(1<<uint(q-1-b)) != 0 {
					d1[b] = min(d1[b], d)
				} else {
					d0[b] = min(d0[b], d)
				}
			}
		}
		for b := 0; b < q; b++ {
			llr = append(llr, (d1[b]-d0[b])/noiseVar)
			tied = append(tied, abs(d1[b]-d0[b]) <= 4*ulp(max(d1[b], d0[b])))
		}
		nearest, farthest = append(nearest, near), append(farthest, far)
	}
	return llr, nearest, farthest, tied
}

// ulp is the spacing of T at x.
func ulp[T float](x T) T {
	if _, ok := any(x).(float32); ok {
		return T(math.Nextafter32(float32(x), float32(math.Inf(1))) - float32(x))
	}
	return T(math.Nextafter(float64(x), math.Inf(1)) - float64(x))
}

// llrTol is the LLR agreement the contract demands, as a fraction of
// (farthest point distance² / noiseVar): 1e-12 in float64 and the same
// number of ulps (1e-12 · 2^29) in float32.
func llrTol[T float]() float64 {
	if _, ok := any(T(0)).(float32); ok {
		return 1e-12 * (1 << 29)
	}
	return 1e-12
}

// nearBoundary reports whether axis coordinate y lies within 4 ulp of one
// of the scheme's per-axis decision boundaries 0, ±2a, ±4a, ±6a (ulp taken
// at the boundary; at the unit level a for the boundary 0). The oracle's
// levels are rounded odd multiples of a and the kernel's boundaries exact
// even ones, so the two place a boundary up to an ulp apart.
func nearBoundary[T float](s Scheme, y T) bool {
	a := T(unit[s])
	u := abs(y)
	if u <= 4*ulp(a) {
		return true
	}
	levels := T(int(1) << (s.Bits() / 2))
	for c := 2 * a; c < (levels-1)*a; c += 2 * a {
		if abs(u-c) <= 4*ulp(c) {
			return true
		}
	}
	return false
}

// checkAgainstExhaustive holds demap — DemapEVM at either width — to the
// correctness contract against the oracle: hard decisions identical for
// every bit the oracle resolves and whose axis coordinate is not within 4
// ulp of a decision boundary, LLRs within llrTol, and the fused EVM equal to
// both the oracle's and evm's (the standalone EVM of the same symbols).
func checkAgainstExhaustive[T float](t *testing.T, s Scheme, re, im []T, noiseVar T,
	demap func() ([]T, float64), evm func() float64) {
	t.Helper()
	q := s.Bits()
	got, gotEVM := demap()
	want, nearest, farthest, tied := exhaustive(s, re, im, noiseVar)
	if len(got) != len(want) {
		t.Fatalf("%v: %d LLRs, want %d", s, len(got), len(want))
	}
	var errPow float64
	for i := range re {
		errPow += float64(nearest[i])
		tol := llrTol[T]() * float64(farthest[i]) / float64(noiseVar)
		for b := 0; b < q; b++ {
			g, w := got[q*i+b], want[q*i+b]
			if d := math.Abs(float64(g) - float64(w)); !(d <= tol) {
				t.Fatalf("%v y=(%g,%g) nv=%g: LLR[%d] = %g, exhaustive %g (diff %g > %g)",
					s, re[i], im[i], noiseVar, b, g, w, d, tol)
			}
			y := re[i]
			if b&1 == 1 {
				y = im[i]
			}
			if (g < 0) != (w < 0) && !tied[q*i+b] && !nearBoundary(s, y) {
				t.Fatalf("%v y=(%g,%g): bit %d decided from LLR %g, exhaustive %g",
					s, re[i], im[i], b, g, w)
			}
		}
	}
	wantEVM := rms(errPow, len(re))
	// A symbol's nearest distance carries an absolute rounding error of a
	// few ulp of the unit level, so clean symbols bound the agreement with
	// the oracle absolutely; the two production paths agree relatively.
	if d := math.Abs(gotEVM - wantEVM); d > llrTol[T]()*(1+wantEVM) {
		t.Fatalf("%v: fused EVM %g, exhaustive %g", s, gotEVM, wantEVM)
	}
	if alone := evm(); math.Abs(gotEVM-alone) > 1e-12*alone {
		t.Fatalf("%v: fused EVM %g, standalone EVM %g", s, gotEVM, alone)
	}
}

// boundaryGrid returns axis coordinates that cross every region boundary
// of the 64-QAM axis kernel (a superset of the other schemes') ulp by ulp —
// 0, ±2a, ±4a, ±6a — plus the levels themselves, points between them and
// points far outside the constellation.
func boundaryGrid[T float](s Scheme) []T {
	a := T(unit[s])
	var g []T
	for c := T(0); c <= 6*a; c += 2 * a {
		step := ulp(max(c, a))
		for j := T(-40); j <= 40; j++ {
			g = append(g, c+j*step, -(c + j*step))
		}
	}
	for _, m := range []T{0.5, 1, 1.5, 2.5, 3, 3.5, 4.5, 5, 5.5, 6.5, 7, 7.5, 8, 9, 12, 40, 1000, 1e6} {
		g = append(g, m*a, -m*a)
	}
	return g
}

// gridSymbols crosses the dense boundary grid on one axis with a coarse
// set of coordinates on the other, both ways round.
func gridSymbols[T float](s Scheme) (re, im []T) {
	a := T(unit[s])
	coarse := []T{0, 0.7 * a, -2.9 * a, 4.2 * a, -7 * a, 25 * a}
	for _, y := range boundaryGrid[T](s) {
		for _, c := range coarse {
			re, im = append(re, y, c), append(im, c, y)
		}
	}
	return re, im
}

// split separates complex symbols into planes for the oracle.
func split(syms []complex128) (re, im []float64) {
	for _, y := range syms {
		re, im = append(re, real(y)), append(im, imag(y))
	}
	return re, im
}

// TestDemapMatchesExhaustive holds the float64 demapper to the correctness
// contract on random symbols (near and far from the constellation) and on
// the dense sweep across every region boundary.
func TestDemapMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range schemes {
		check := func(syms []complex128, nv float64) {
			t.Helper()
			re, im := split(syms)
			checkAgainstExhaustive(t, s, re, im, nv,
				func() ([]float64, float64) { return s.DemapEVM(nil, syms, nv) },
				func() float64 { return s.EVM(syms) })
		}
		for trial := 0; trial < 50; trial++ {
			syms := make([]complex128, 40)
			for i := range syms {
				// Mix far-out and near-boundary samples.
				scale := 1.0
				if trial%2 == 0 {
					scale = 3.0
				}
				syms[i] = complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
			}
			check(syms, 0.01+rng.Float64())
		}
		re, im := gridSymbols[float64](s)
		syms := make([]complex128, len(re))
		for i := range syms {
			syms[i] = complex(re[i], im[i])
		}
		for _, nv := range []float64{1e-3, 0.37, 50} {
			check(syms, nv)
		}
	}
}

func TestMapPanicsOnBitCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Map with non-multiple bit count did not panic")
		}
	}()
	QAM16.Map(nil, make([]uint8, 5))
}

func TestDemapPanicsOnNoiseVar(t *testing.T) {
	for _, nv := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Demap accepted noiseVar %g", nv)
				}
			}()
			QPSK.Demap(nil, []complex128{1}, nv)
		}()
	}
}

func BenchmarkDemap(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	syms := make([]complex128, 1200)
	for i := range syms {
		syms[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for _, s := range schemes {
		b.Run(s.String(), func(b *testing.B) {
			var dst []float64
			for i := 0; i < b.N; i++ {
				dst = s.Demap(dst[:0], syms, 0.1)
			}
		})
	}
}

// BenchmarkDemapEVM times the fused kernel as the receiver calls it, in
// ns per demapped bit.
func BenchmarkDemapEVM(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	syms := make([]complex128, 1200)
	for i := range syms {
		syms[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for _, s := range schemes {
		b.Run(s.String(), func(b *testing.B) {
			var dst []float64
			var evm float64
			for i := 0; i < b.N; i++ {
				dst, evm = s.DemapEVM(dst[:0], syms, 0.1)
			}
			benchSink = evm
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/bit")
		})
	}
}

var benchSink float64

func BenchmarkMap64QAM(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	bits := make([]uint8, 7200)
	for i := range bits {
		bits[i] = uint8(rng.Intn(2))
	}
	var dst []complex128
	for i := 0; i < b.N; i++ {
		dst = QAM64.Map(dst[:0], bits)
	}
}

func TestEVM(t *testing.T) {
	// Clean constellation points: EVM 0, to the rounding of the 3a level.
	tab := QAM16.Constellation()
	if got := QAM16.EVM(tab); got > 1e-15 {
		t.Errorf("EVM of exact points = %g", got)
	}
	// Known offset: every point displaced by 0.1 -> EVM exactly 0.1 as long
	// as the displacement does not cross a decision boundary (16QAM min
	// half-distance is 1/sqrt(10) ~ 0.316).
	displaced := make([]complex128, len(tab))
	for i, pt := range tab {
		displaced[i] = pt + complex(0.1, 0)
	}
	if got := QAM16.EVM(displaced); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("EVM of 0.1-displaced points = %g", got)
	}
	// EVM grows with noise.
	rng := rand.New(rand.NewSource(1))
	noisy := func(sigma float64) float64 {
		syms := make([]complex128, 500)
		for i := range syms {
			syms[i] = tab[rng.Intn(len(tab))] + complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
		}
		return QAM16.EVM(syms)
	}
	if a, b := noisy(0.02), noisy(0.1); a >= b {
		t.Errorf("EVM did not grow with noise: %g vs %g", a, b)
	}
	if QPSK.EVM(nil) != 0 {
		t.Error("empty EVM not zero")
	}
}
