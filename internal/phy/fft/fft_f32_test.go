package fft

import (
	"math"
	"math/cmplx"
	"testing"

	"ltephy/internal/phy/workspace"
	"ltephy/internal/rng"
)

// f32TestLengths covers every structural case of the float32 engine:
// trivial, single-stage, pure radix-4 chains, odd/even stage counts,
// mixed radices including 7, prime-radix lengths alone and as a last pass
// (11, 13, 22, 121, 132, 156, 204, 444), one that takes Bluestein (1201) —
// plus the LTE allocation sizes 12*nPRB the receiver actually uses.
var f32TestLengths = []int{
	1, 2, 3, 4, 5, 7, 8, 12, 16, 24, 36, 60, 64, 72, 84, 96,
	108, 120, 128, 132, 156, 204, 240, 300, 444, 600, 1200, 2400,
	11, 13, 22, 121, 1201,
}

func randPlanesF32(r *rng.RNG, n int) (re, im []float32, c []complex128) {
	re = make([]float32, n)
	im = make([]float32, n)
	c = make([]complex128, n)
	for k := 0; k < n; k++ {
		re[k] = float32(r.NormFloat64())
		im[k] = float32(r.NormFloat64())
		c[k] = complex(float64(re[k]), float64(im[k]))
	}
	return
}

// f32Tol is the pinned relative accuracy bound for the float32 engine
// versus the float64 engine: a few float32 ulps per butterfly level,
// measured against the RMS magnitude of the reference spectrum (a
// per-element relative bound is meaningless at spectral nulls).
func f32Tol(n int) float64 {
	levels := math.Log2(float64(n)) + 1
	return 6e-7 * levels
}

func checkF32Spectrum(t *testing.T, name string, n int, gotRe, gotIm []float32, want []complex128) {
	t.Helper()
	var ref float64
	for _, v := range want {
		ref += real(v)*real(v) + imag(v)*imag(v)
	}
	scale := math.Sqrt(ref/float64(n)) + 1
	tol := f32Tol(n) * scale * math.Sqrt(float64(n))
	for k := range want {
		got := complex(float64(gotRe[k]), float64(gotIm[k]))
		if d := cmplx.Abs(got - want[k]); d > tol {
			t.Fatalf("%s n=%d: bin %d = %v, want %v (|diff| %g > tol %g)",
				name, n, k, got, want[k], d, tol)
		}
	}
}

// TestForwardF32MatchesComplex128 pins the float32 split-plane forward
// transform against the complex128 engine on identical inputs.
func TestForwardF32MatchesComplex128(t *testing.T) {
	r := rng.New(11)
	for _, n := range f32TestLengths {
		srcRe, srcIm, src := randPlanesF32(r, n)
		want := make([]complex128, n)
		New(n).Forward(want, src)

		p := NewSplit[float32](n)
		dstRe, dstIm := make([]float32, n), make([]float32, n)
		p.Forward(dstRe, dstIm, srcRe, srcIm)
		checkF32Spectrum(t, "Forward", n, dstRe, dstIm, want)

		// In-place (dst aliases src) must agree bit-for-bit with the
		// out-of-place result.
		p.Forward(srcRe, srcIm, srcRe, srcIm)
		for k := 0; k < n; k++ {
			if srcRe[k] != dstRe[k] || srcIm[k] != dstIm[k] {
				t.Fatalf("n=%d: aliased forward diverged at bin %d", n, k)
			}
		}
	}
}

// TestInverseF32RoundTrip checks Inverse(Forward(x)) == x to float32
// rounding for every structural length.
func TestInverseF32RoundTrip(t *testing.T) {
	r := rng.New(12)
	for _, n := range f32TestLengths {
		srcRe, srcIm, src := randPlanesF32(r, n)
		p := NewSplit[float32](n)
		fre, fim := make([]float32, n), make([]float32, n)
		p.Forward(fre, fim, srcRe, srcIm)
		p.Inverse(fre, fim, fre, fim)
		checkF32Spectrum(t, "RoundTrip", n, fre, fim, src)
	}
}

// TestInverseF32MatchesComplex128 pins InverseIn against the complex128
// inverse on spectrum-domain input.
func TestInverseF32MatchesComplex128(t *testing.T) {
	r := rng.New(13)
	ws := workspace.New()
	for _, n := range f32TestLengths {
		srcRe, srcIm, src := randPlanesF32(r, n)
		want := make([]complex128, n)
		New(n).Inverse(want, src)

		p := NewSplit[float32](n)
		dstRe, dstIm := make([]float32, n), make([]float32, n)
		p.InverseIn(ws, dstRe, dstIm, srcRe, srcIm)
		checkF32Spectrum(t, "Inverse", n, dstRe, dstIm, want)
	}
}

// TestBatchF32BitExact proves the batch entry points are bit-identical
// to per-vector ForwardIn/InverseIn calls, for smooth, prime-radix (132)
// and Bluestein (199) lengths, and exercises the strided scatter form.
func TestBatchF32BitExact(t *testing.T) {
	r := rng.New(14)
	ws := workspace.New()
	for _, n := range []int{12, 60, 132, 199, 300} {
		const howMany = 5
		stride := n + 3
		total := (howMany-1)*stride + n
		srcRe, srcIm := make([]float32, total), make([]float32, total)
		for k := range srcRe {
			srcRe[k] = float32(r.NormFloat64())
			srcIm[k] = float32(r.NormFloat64())
		}
		p := NewSplit[float32](n)

		wantRe, wantIm := make([]float32, total), make([]float32, total)
		for i := 0; i < howMany; i++ {
			o := i * stride
			p.ForwardIn(ws, wantRe[o:o+n], wantIm[o:o+n], srcRe[o:o+n], srcIm[o:o+n])
		}
		gotRe, gotIm := make([]float32, total), make([]float32, total)
		p.ForwardBatch(ws, gotRe, gotIm, srcRe, srcIm, howMany, stride)
		for k := range wantRe {
			if gotRe[k] != wantRe[k] || gotIm[k] != wantIm[k] {
				t.Fatalf("n=%d: ForwardBatch diverged from per-vector at %d", n, k)
			}
		}

		// Strided scatter: batch from stride to a wider dstStride.
		dstStride := n + 9
		wide := (howMany-1)*dstStride + n
		sgRe, sgIm := make([]float32, wide), make([]float32, wide)
		p.ForwardBatchStrided(ws, sgRe, sgIm, srcRe, srcIm, howMany, dstStride, stride)
		for i := 0; i < howMany; i++ {
			so, do := i*stride, i*dstStride
			for k := 0; k < n; k++ {
				if sgRe[do+k] != wantRe[so+k] || sgIm[do+k] != wantIm[so+k] {
					t.Fatalf("n=%d: strided batch diverged at vec %d bin %d", n, i, k)
				}
			}
		}

		for i := 0; i < howMany; i++ {
			o := i * stride
			p.InverseIn(ws, wantRe[o:o+n], wantIm[o:o+n], srcRe[o:o+n], srcIm[o:o+n])
		}
		p.InverseBatch(ws, gotRe, gotIm, srcRe, srcIm, howMany, stride)
		for k := range wantRe {
			if gotRe[k] != wantRe[k] || gotIm[k] != wantIm[k] {
				t.Fatalf("n=%d: InverseBatch diverged from per-vector at %d", n, k)
			}
		}
	}
}

// TestF32ArenaPoolAgree proves arena-backed and pool-backed transforms
// produce bit-identical results (the scratch source must not change the
// arithmetic), including the Bluestein tail-zeroing contract.
func TestF32ArenaPoolAgree(t *testing.T) {
	r := rng.New(15)
	ws := workspace.New()
	for _, n := range []int{24, 96, 132, 1201} {
		srcRe, srcIm, _ := randPlanesF32(r, n)
		p := NewSplit[float32](n)
		aRe, aIm := make([]float32, n), make([]float32, n)
		bRe, bIm := make([]float32, n), make([]float32, n)
		// Dirty the arena's f32 stack first so stale scratch would surface.
		mk := ws.Mark()
		junk := ws.Float32(4 * n)
		for k := range junk {
			junk[k] = 999
		}
		ws.Release(mk)
		p.ForwardIn(ws, aRe, aIm, srcRe, srcIm)
		p.Forward(bRe, bIm, srcRe, srcIm)
		for k := 0; k < n; k++ {
			if aRe[k] != bRe[k] || aIm[k] != bIm[k] {
				t.Fatalf("n=%d: arena vs pool scratch diverged at bin %d", n, k)
			}
		}
	}
}

// TestGetF32SharedCache checks the (size, precision) plan cache: both
// precisions for one length coexist and repeat lookups return the same
// instance.
func TestGetF32SharedCache(t *testing.T) {
	c1 := Get(444)
	f1 := GetSplit[float32](444)
	if c1.Len() != 444 || f1.Len() != 444 {
		t.Fatal("cached plan has wrong length")
	}
	if Get(444) != c1 {
		t.Error("Get(444) not memoised")
	}
	if GetSplit[float32](444) != f1 {
		t.Error("GetSplit[float32](444) not memoised")
	}
	// The two precisions must not evict each other.
	if Get(444) != c1 || GetSplit[float32](444) != f1 {
		t.Error("precision entries evicted each other")
	}
}

// TestOpsF32MatchesComplex128 pins the shared butterfly accounting.
func TestOpsF32MatchesComplex128(t *testing.T) {
	for _, n := range []int{1, 12, 132, 600, 1201} {
		if c, f := New(n).Ops(), NewSplit[float32](n).Ops(); c != f {
			t.Errorf("n=%d: Ops mismatch f64 %g vs f32 %g", n, c, f)
		}
	}
}
