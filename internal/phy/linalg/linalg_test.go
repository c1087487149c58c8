package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, r, c int) Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func matMaxDiff(a, b Matrix) float64 {
	d := 0.0
	for i := range a.Data {
		if v := cmplx.Abs(a.Data[i] - b.Data[i]); v > d {
			d = v
		}
	}
	return d
}

// The Gauss-Jordan inverse and the dense products below are the package's
// pre-Cholesky solver, kept here as the independent oracle for MMSESolve
// and IRCSolve: W formed from an explicit pivoted inverse shares no step
// with the factor-and-substitute path it checks.

func conjTransposeOf(m Matrix) Matrix {
	dst := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			dst.Data[c*dst.Cols+r] = cmplx.Conj(m.Data[r*m.Cols+c])
		}
	}
	return dst
}

func mul(a, b Matrix) Matrix {
	dst := NewMatrix(a.Rows, b.Cols)
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < b.Cols; c++ {
			var sum complex128
			for k := 0; k < a.Cols; k++ {
				sum += a.Data[r*a.Cols+k] * b.Data[k*b.Cols+c]
			}
			dst.Data[r*dst.Cols+c] = sum
		}
	}
	return dst
}

func addDiag(m Matrix, v complex128) {
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += v
	}
}

// invert returns m^{-1} by Gauss-Jordan elimination with partial pivoting,
// or false when a pivot is numerically zero or NaN. The pivot magnitude is
// max(|re|, |im|): monotone enough to pick a pivot, and free of the
// overflow and cost of a hypot.
func invert(m Matrix) (Matrix, bool) {
	n := m.Rows
	a := append([]complex128(nil), m.Data...)
	inv := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		inv.Data[i*n+i] = 1
	}
	mag := func(v complex128) float64 { return math.Max(math.Abs(real(v)), math.Abs(imag(v))) }
	swap := func(d []complex128, r1, r2 int) {
		for c := 0; c < n; c++ {
			d[r1*n+c], d[r2*n+c] = d[r2*n+c], d[r1*n+c]
		}
	}
	for col := 0; col < n; col++ {
		pivot, pmag := col, mag(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := mag(a[r*n+col]); v > pmag {
				pivot, pmag = r, v
			}
		}
		if !(pmag > 1e-300) || math.IsInf(pmag, 0) {
			return inv, false
		}
		swap(a, pivot, col)
		swap(inv.Data, pivot, col)
		s := 1 / a[col*n+col]
		for c := 0; c < n; c++ {
			a[col*n+c] *= s
			inv.Data[col*n+c] *= s
		}
		for r := 0; r < n; r++ {
			f := a[r*n+col]
			if r == col || f == 0 {
				continue
			}
			for c := 0; c < n; c++ {
				a[r*n+c] -= f * a[col*n+c]
				inv.Data[r*n+c] -= f * inv.Data[col*n+c]
			}
		}
	}
	return inv, true
}

// refMMSE is W = (H^H H + nv I)^{-1} H^H by explicit inverse.
func refMMSE(t *testing.T, h Matrix, nv float64) Matrix {
	t.Helper()
	hh := conjTransposeOf(h)
	g := mul(hh, h)
	addDiag(g, complex(nv, 0))
	ginv, ok := invert(g)
	if !ok {
		t.Fatal("oracle Gram inversion failed")
	}
	return mul(ginv, hh)
}

// refIRC is W = (H^H R^{-1} H + I)^{-1} H^H R^{-1} by explicit inverses.
func refIRC(t *testing.T, rcov, h Matrix) Matrix {
	t.Helper()
	rinv, ok := invert(rcov)
	if !ok {
		t.Fatal("oracle R inversion failed")
	}
	b := mul(rinv, h) // R^{-1} H; its conjugate transpose is H^H R^{-1}
	g := mul(conjTransposeOf(h), b)
	addDiag(g, 1)
	ginv, ok := invert(g)
	if !ok {
		t.Fatal("oracle Gram inversion failed")
	}
	return mul(ginv, conjTransposeOf(b))
}

func TestOracleInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 1; n <= 4; n++ {
		for trial := 0; trial < 20; trial++ {
			m := randMatrix(rng, n, n)
			addDiag(m, 2) // keep well-conditioned
			inv, ok := invert(m)
			if !ok {
				t.Fatalf("n=%d: oracle reported singular", n)
			}
			id := NewMatrix(n, n)
			addDiag(id, 1)
			if d := matMaxDiff(mul(m, inv), id); d > 1e-9 {
				t.Fatalf("n=%d: M*inv(M) deviates from I by %g", n, d)
			}
		}
	}
	rank1 := Matrix{Rows: 2, Cols: 2, Data: []complex128{1, 2, 2, 4}}
	if _, ok := invert(rank1); ok {
		t.Error("oracle inverted a rank-1 matrix")
	}
	nan := Matrix{Rows: 1, Cols: 1, Data: []complex128{complex(math.NaN(), 0)}}
	if _, ok := invert(nan); ok {
		t.Error("oracle inverted a NaN matrix")
	}
}

// TestMMSESolveMatchesGaussJordan pins the float64 instantiation — the
// complex128 receiver's solver and the float32 path's oracle — against the
// explicit-inverse form over the receiver's shape range: well conditioned,
// and rank-deficient channels held up only by nv = 1e-12, where W is
// checked through the identity it must satisfy, (H^H H + nv I) W = H^H.
func TestMMSESolveMatchesGaussJordan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, shape := range []struct{ ant, layers int }{{1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 2}, {4, 3}, {4, 4}, {8, 4}} {
		ant, layers := shape.ant, shape.layers
		ws := NewMMSEWorkspace(ant, layers)
		for trial := 0; trial < 20; trial++ {
			h := randMatrix(rng, ant, layers)
			got := NewMatrix(layers, ant)
			if err := ws.Solve(&got, h, 0.05); err != nil {
				t.Fatalf("ant=%d layers=%d: %v", ant, layers, err)
			}
			want := refMMSE(t, h, 0.05)
			if d := matMaxDiff(got, want); d > 1e-12 {
				t.Fatalf("ant=%d layers=%d: differs from Gauss-Jordan by %g", ant, layers, d)
			}

			// Every layer sees the same channel column: the Gram matrix has
			// rank 1 and only the loading keeps it positive definite.
			for a := 0; a < ant; a++ {
				for l := 1; l < layers; l++ {
					h.Set(a, l, h.At(a, 0))
				}
			}
			const nv = 1e-12
			if err := ws.Solve(&got, h, nv); err != nil {
				t.Fatalf("ant=%d layers=%d ill-conditioned: %v", ant, layers, err)
			}
			hh := conjTransposeOf(h)
			g := mul(hh, h)
			addDiag(g, nv)
			if d := matMaxDiff(mul(g, got), hh); d > 1e-6 {
				t.Fatalf("ant=%d layers=%d ill-conditioned: residual %g", ant, layers, d)
			}
		}
	}
}

// TestMMSESolveSingular: a Gram matrix that is not positive definite — no
// loading on a zero or rank-deficient channel, NaN or Inf anywhere — is
// ErrSingular, the sentinel itself, and never a panic.
func TestMMSESolveSingular(t *testing.T) {
	for layers := 1; layers <= 4; layers++ {
		ws := NewMMSEWorkspace(4, layers)
		w := NewMatrix(layers, 4)
		if err := ws.Solve(&w, NewMatrix(4, layers), 0); err != ErrSingular {
			t.Errorf("layers=%d zero channel, nv=0: err = %v, want ErrSingular", layers, err)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), 1e300} {
			h := randMatrix(rand.New(rand.NewSource(10)), 4, layers)
			h.Set(1, layers-1, complex(bad, 0))
			if err := ws.Solve(&w, h, 0.1); err != nil && err != ErrSingular {
				t.Errorf("layers=%d channel with %g: err = %v", layers, bad, err)
			}
		}
		nan := NewMatrix(4, layers)
		for i := range nan.Data {
			nan.Data[i] = complex(math.NaN(), math.NaN())
		}
		if err := ws.Solve(&w, nan, 0.1); err != ErrSingular {
			t.Errorf("layers=%d NaN channel: err = %v, want ErrSingular", layers, err)
		}
	}
}

// TestMMSERecoversSignal drives the end-to-end combiner property: with low
// noise, W*(H*x) must approximate x for any full-rank channel.
func TestMMSERecoversSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for layers := 1; layers <= 4; layers++ {
		const ant = 4
		ws := NewMMSEWorkspace(ant, layers)
		for trial := 0; trial < 10; trial++ {
			h := randMatrix(rng, ant, layers)
			x := make([]complex128, layers)
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			y := make([]complex128, ant)
			for a := 0; a < ant; a++ {
				var sum complex128
				for l := 0; l < layers; l++ {
					sum += h.At(a, l) * x[l]
				}
				y[a] = sum
			}
			w := NewMatrix(layers, ant)
			if err := ws.Solve(&w, h, 1e-9); err != nil {
				t.Fatal(err)
			}
			got := make([]complex128, layers)
			ApplyWeights(got, w, y)
			for l := 0; l < layers; l++ {
				if cmplx.Abs(got[l]-x[l]) > 1e-3 {
					t.Fatalf("layers=%d: recovered[%d] = %v, want %v", layers, l, got[l], x[l])
				}
			}
		}
	}
}

// TestMMSEShrinksWithNoise: as noise variance grows, the MMSE estimate is
// biased toward zero (regularisation), so its norm must not grow.
func TestMMSEShrinksWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const ant, layers = 4, 2
	ws := NewMMSEWorkspace(ant, layers)
	h := randMatrix(rng, ant, layers)
	y := make([]complex128, ant)
	for i := range y {
		y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	norm := func(nv float64) float64 {
		w := NewMatrix(layers, ant)
		if err := ws.Solve(&w, h, nv); err != nil {
			t.Fatal(err)
		}
		x := make([]complex128, layers)
		ApplyWeights(x, w, y)
		var s float64
		for _, v := range x {
			s += real(v)*real(v) + imag(v)*imag(v)
		}
		return s
	}
	if n1, n2 := norm(0.01), norm(10); n2 > n1 {
		t.Errorf("MMSE norm grew with noise: %g -> %g", n1, n2)
	}
}

func TestWorkspacePanics(t *testing.T) {
	for _, tc := range [][2]int{{0, 1}, {4, 0}, {2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMMSEWorkspace(%d,%d) did not panic", tc[0], tc[1])
				}
			}()
			NewMMSEWorkspace(tc[0], tc[1])
		}()
	}
}

func BenchmarkMMSESolve(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	for layers := 1; layers <= 4; layers++ {
		h := randMatrix(rng, 4, layers)
		ws := NewMMSEWorkspace(4, layers)
		w := NewMatrix(layers, 4)
		b.Run("layers"+string(rune('0'+layers)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := ws.Solve(&w, h, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
