package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n^2) reference transform.
func naiveDFT(src []complex128) []complex128 {
	n := len(src)
	dst := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			theta := -2 * math.Pi * float64(j*k%n) / float64(n)
			sum += src[j] * cmplx.Exp(complex(0, theta))
		}
		dst[k] = sum
	}
	return dst
}

func randVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func maxAbsDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// testSizes covers every structural case: trivial, pure radix-2, radix-3/5/7
// mixes (typical LTE sizes are 12*k), primes alone and as the last pass
// (17, 31, 97, 132, 264; 77 has two odd-prime passes), Bluestein (199,
// 1201), and the largest size the benchmark uses (200 PRB * 12 = 2400).
var testSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 17, 20, 24, 25, 27,
	31, 36, 48, 49, 60, 64, 77, 97, 100, 120, 128, 132, 144, 199, 240, 256, 264, 300, 360,
	480, 600, 625, 720, 960, 1024, 1200, 1201, 2400}

func TestForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range testSizes {
		src := randVec(rng, n)
		want := naiveDFT(src)
		got := make([]complex128, n)
		New(n).Forward(got, src)
		tol := 1e-8 * float64(n)
		if d := maxAbsDiff(got, want); d > tol {
			t.Errorf("n=%d: max |fft-naive| = %g > %g", n, d, tol)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range testSizes {
		p := New(n)
		src := randVec(rng, n)
		freq := make([]complex128, n)
		back := make([]complex128, n)
		p.Forward(freq, src)
		p.Inverse(back, freq)
		tol := 1e-9 * float64(n)
		if d := maxAbsDiff(back, src); d > tol {
			t.Errorf("n=%d: round trip error %g > %g", n, d, tol)
		}
	}
}

func TestInPlaceForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{8, 24, 97, 300} {
		p := New(n)
		src := randVec(rng, n)
		want := make([]complex128, n)
		p.Forward(want, src)
		inplace := append([]complex128(nil), src...)
		p.Forward(inplace, inplace)
		if d := maxAbsDiff(inplace, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: in-place differs from out-of-place by %g", n, d)
		}
	}
}

func TestInPlaceInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{16, 60, 199} {
		p := New(n)
		src := randVec(rng, n)
		want := make([]complex128, n)
		p.Inverse(want, src)
		inplace := append([]complex128(nil), src...)
		p.Inverse(inplace, inplace)
		if d := maxAbsDiff(inplace, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: in-place inverse differs by %g", n, d)
		}
	}
}

// TestParseval checks sum |x|^2 == sum |X|^2 / N, a global invariant that
// catches scaling and twiddle-sign errors.
func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range testSizes {
		src := randVec(rng, n)
		dst := make([]complex128, n)
		New(n).Forward(dst, src)
		var et, ef float64
		for i := 0; i < n; i++ {
			et += real(src[i])*real(src[i]) + imag(src[i])*imag(src[i])
			ef += real(dst[i])*real(dst[i]) + imag(dst[i])*imag(dst[i])
		}
		ef /= float64(n)
		if math.Abs(et-ef) > 1e-7*et+1e-12 {
			t.Errorf("n=%d: Parseval violated: time %g vs freq %g", n, et, ef)
		}
	}
}

// TestLinearity is a property-based check: DFT(a*x + b*y) == a*DFT(x) + b*DFT(y).
func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64, a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		a = math.Mod(a, 8)
		b = math.Mod(b, 8)
		r := rand.New(rand.NewSource(seed))
		n := testSizes[r.Intn(len(testSizes))]
		p := Get(n)
		x := randVec(rng, n)
		y := randVec(rng, n)
		comb := make([]complex128, n)
		for i := range comb {
			comb[i] = complex(a, 0)*x[i] + complex(b, 0)*y[i]
		}
		fx := make([]complex128, n)
		fy := make([]complex128, n)
		fc := make([]complex128, n)
		p.Forward(fx, x)
		p.Forward(fy, y)
		p.Forward(fc, comb)
		for i := range fc {
			want := complex(a, 0)*fx[i] + complex(b, 0)*fy[i]
			if cmplx.Abs(fc[i]-want) > 1e-7*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestImpulse verifies that a unit impulse transforms to an all-ones
// spectrum and a constant transforms to a scaled impulse.
func TestImpulse(t *testing.T) {
	for _, n := range []int{5, 12, 17, 48, 2400} {
		p := New(n)
		src := make([]complex128, n)
		src[0] = 1
		dst := make([]complex128, n)
		p.Forward(dst, src)
		for k, v := range dst {
			if cmplx.Abs(v-1) > 1e-9*float64(n) {
				t.Fatalf("n=%d: impulse spectrum at %d = %v, want 1", n, k, v)
			}
		}
		for i := range src {
			src[i] = 1
		}
		p.Forward(dst, src)
		if cmplx.Abs(dst[0]-complex(float64(n), 0)) > 1e-9*float64(n) {
			t.Errorf("n=%d: DC bin %v, want %d", n, dst[0], n)
		}
		for k := 1; k < n; k++ {
			if cmplx.Abs(dst[k]) > 1e-8*float64(n) {
				t.Errorf("n=%d: non-DC bin %d = %v, want 0", n, k, dst[k])
			}
		}
	}
}

// TestShiftTheorem checks the circular-shift property
// DFT(x shifted by s)[k] == DFT(x)[k] * exp(-2*pi*i*s*k/N), which the
// channel estimator's cyclic-shift layer separation relies on.
func TestShiftTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{24, 36, 97, 144} {
		p := New(n)
		x := randVec(rng, n)
		s := 1 + rng.Intn(n-1)
		shifted := make([]complex128, n)
		for i := range shifted {
			shifted[i] = x[(i-s+n)%n]
		}
		fx := make([]complex128, n)
		fs := make([]complex128, n)
		p.Forward(fx, x)
		p.Forward(fs, shifted)
		for k := 0; k < n; k++ {
			theta := -2 * math.Pi * float64(s*k%n) / float64(n)
			want := fx[k] * cmplx.Exp(complex(0, theta))
			if cmplx.Abs(fs[k]-want) > 1e-8*float64(n) {
				t.Fatalf("n=%d s=%d: shift theorem violated at bin %d", n, s, k)
			}
		}
	}
}

func TestGetCachesPlans(t *testing.T) {
	a := Get(360)
	b := Get(360)
	if a != b {
		t.Error("Get(360) returned distinct plans; cache not working")
	}
	if a.Len() != 360 {
		t.Errorf("plan length = %d, want 360", a.Len())
	}
}

func TestOpsMonotonicInSize(t *testing.T) {
	// Ops need not be strictly monotone across smooth/prime-radix/Bluestein
	// boundaries, but within the smooth family it must grow with n, and a
	// prime-radix or Bluestein length must cost more than a smooth one of
	// similar size.
	prev := 0.0
	for _, n := range []int{12, 24, 48, 96, 192, 384, 768, 1536} {
		ops := New(n).Ops()
		if ops <= prev {
			t.Errorf("Ops(%d) = %g not greater than previous %g", n, ops, prev)
		}
		prev = ops
	}
	for _, pair := range [][2]int{{97, 96}, {199, 192}, {264, 240}} {
		if hard, sm := New(pair[0]).Ops(), New(pair[1]).Ops(); hard <= sm {
			t.Errorf("Ops(%d)=%g should exceed smooth Ops(%d)=%g", pair[0], hard, pair[1], sm)
		}
	}
}

func TestNewPanicsOnInvalidLength(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestForwardPanicsOnLengthMismatch(t *testing.T) {
	p := New(8)
	defer func() {
		if recover() == nil {
			t.Error("Forward with mismatched lengths did not panic")
		}
	}()
	p.Forward(make([]complex128, 4), make([]complex128, 8))
}

func TestConcurrentUse(t *testing.T) {
	p := Get(300)
	rng := rand.New(rand.NewSource(8))
	src := randVec(rng, 300)
	want := make([]complex128, 300)
	p.Forward(want, src)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				got := make([]complex128, 300)
				p.Forward(got, src)
				if maxAbsDiff(got, want) > 1e-9 {
					done <- errShared
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errShared = errString("concurrent Forward produced divergent result")

type errString string

func (e errString) Error() string { return string(e) }

// BenchmarkForward times single transforms at LTE allocation widths:
// smooth (240, 288, 600, 1200), prime-radix from 11 to 97 (132 … 1164) and
// one that still takes Bluestein (2388 = 12*199). The sub-benchmark name
// carries the path the plan took, and ns/point is reported next to ns/op.
func BenchmarkForward(b *testing.B) {
	for _, n := range []int{132, 240, 264, 276, 288, 564, 600, 1164, 1200, 2388} {
		p := New(n)
		src := randVec(rand.New(rand.NewSource(9)), n)
		dst := make([]complex128, n)
		name := sizeName(n)
		if p.Bluestein() {
			name += "-bluestein"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Forward(dst, src)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/point")
		})
	}
}

func sizeName(n int) string {
	return "n" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
