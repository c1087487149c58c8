package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ltephy/internal/phy/workspace"
)

// naiveDFTTable is an O(n^2) reference DFT with a precomputed root table —
// the same arithmetic as naiveDFT but fast enough to sweep every LTE
// length in one test run.
func naiveDFTTable(src []complex128) []complex128 {
	n := len(src)
	roots := make([]complex128, n)
	for j := range roots {
		theta := -2 * math.Pi * float64(j) / float64(n)
		roots[j] = complex(math.Cos(theta), math.Sin(theta))
	}
	dst := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			sum += src[j] * roots[(j*k)%n]
		}
		dst[k] = sum
	}
	return dst
}

// TestAccuracySweepAllLTELengths sweeps every LTE allocation width
// n = 12*nPRB for nPRB in [2, 200] at both element widths against the
// O(n^2) reference: complex128 to 1e-9 of the spectrum's peak magnitude,
// float32 to the engine's pinned tolerance. It also pins which path each
// length takes, read from the plan: the one with the lower operation count
// (the two widths agreeing), direct — no Bluestein — for every allocation
// up to 110 PRB, and Bluestein still reached above that so its half of the
// sweep is not vacuous. This is the accuracy gate `make check` runs across
// the full deployed size range.
func TestAccuracySweepAllLTELengths(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const relTol = 1e-9
	bluestein := 0
	for nPRB := 2; nPRB <= 200; nPRB++ {
		n := 12 * nPRB
		p, pf := Get(n), GetSplit[float32](n)

		direct := scheduleOps(n, radixSchedule(n))
		_, chirp := bluesteinPlan(n)
		if want := chirp < direct; p.Bluestein() != want || pf.Bluestein() != want {
			t.Errorf("n=%d (nPRB=%d): Bluestein() = %v / %v (f32), but direct costs %g ops and Bluestein %g",
				n, nPRB, p.Bluestein(), pf.Bluestein(), direct, chirp)
		}
		if want := min(direct, chirp); p.Ops() != want || pf.Ops() != want {
			t.Errorf("n=%d: Ops() = %g / %g (f32), want the chosen path's %g", n, p.Ops(), pf.Ops(), want)
		}
		if p.Bluestein() {
			bluestein++
			if nPRB <= 110 {
				t.Errorf("n=%d (nPRB=%d): takes Bluestein; every allocation up to 110 PRB must be direct", n, nPRB)
			}
		}

		src := randVec(rng, n)
		want := naiveDFTTable(src)
		got := make([]complex128, n)
		p.Forward(got, src)
		peak := 0.0
		for _, v := range want {
			if m := math.Hypot(real(v), imag(v)); m > peak {
				peak = m
			}
		}
		if d := maxAbsDiff(got, want); d > relTol*peak {
			t.Errorf("n=%d (nPRB=%d): max |fft-naive| = %g, relative %g > %g",
				n, nPRB, d, d/peak, relTol)
		}

		srcRe, srcIm := make([]float32, n), make([]float32, n)
		for k, v := range src {
			srcRe[k], srcIm[k] = float32(real(v)), float32(imag(v))
			src[k] = complex(float64(srcRe[k]), float64(srcIm[k]))
		}
		dstRe, dstIm := make([]float32, n), make([]float32, n)
		pf.Forward(dstRe, dstIm, srcRe, srcIm)
		checkF32Spectrum(t, "sweep", n, dstRe, dstIm, naiveDFTTable(src))
	}
	if bluestein == 0 {
		t.Error("no length in the sweep takes Bluestein: its accuracy is unchecked")
	}
}

// TestStageOddMatchesNaive checks the odd-prime kernel by itself, at both
// widths, against the pass it implements written out naively,
//
//	y[q + s*(r*p + j)] = sum_c x[q + s*(p + c*m)] * W_r^{j*c} * W_{r*m}^{j*p},
//
// for every prime radix from 7 to 97: as the last pass (m = 1, no
// twiddles) alone and interleaved, and as an earlier pass (m > 1) with its
// twiddles.
func TestStageOddMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	w := func(num, den int) complex128 {
		return cmplx.Exp(complex(0, -2*math.Pi*float64(num%den)/float64(den)))
	}
	for _, r := range []int{7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97} {
		for _, g := range []struct{ m, s int }{{1, 1}, {1, 12}, {3, 4}, {5, 1}} {
			m, s := g.m, g.s
			st := newStage[float64](r, m, s)
			n := r * m * s
			x := randVec(rng, n)
			want := make([]complex128, n)
			for p := 0; p < m; p++ {
				for j := 0; j < r; j++ {
					for q := 0; q < s; q++ {
						var sum complex128
						for c := 0; c < r; c++ {
							sum += x[q+s*(p+c*m)] * w(j*c, r)
						}
						want[q+s*(r*p+j)] = sum * w(j*p, r*m)
					}
				}
			}
			xr, xi := make([]float64, n), make([]float64, n)
			for k, v := range x {
				xr[k], xi[k] = real(v), imag(v)
			}
			yr, yi := make([]float64, n), make([]float64, n)
			stageOdd(&st, yr, yi, xr, xi)
			got := make([]complex128, n)
			for k := range got {
				got[k] = complex(yr[k], yi[k])
			}
			if d := maxAbsDiff(got, want); d > 1e-13*float64(r) {
				t.Errorf("r=%d m=%d s=%d: max |stageOdd-naive| = %g", r, m, s, d)
			}

			xRe, xIm := make([]float32, n), make([]float32, n)
			for k, v := range x {
				xRe[k], xIm[k] = float32(real(v)), float32(imag(v))
			}
			yRe, yIm := make([]float32, n), make([]float32, n)
			sf := newStage[float32](r, m, s)
			stageOdd(&sf, yRe, yIm, xRe, xIm)
			for k, v := range want {
				got := complex(float64(yRe[k]), float64(yIm[k]))
				if d := cmplx.Abs(got - v); d > 2e-6*float64(r) {
					t.Fatalf("r=%d m=%d s=%d: float32 bin %d off by %g", r, m, s, k, d)
				}
			}
		}
	}
}

// TestPrimeRadixBatchBitIdentical pins, at the 22-PRB length whose radix-11
// pass made it a Bluestein length before, that the plan is direct and that
// a batch — strided, in place, either scratch source — is bit-identical to
// single transforms, at both widths.
func TestPrimeRadixBatchBitIdentical(t *testing.T) {
	const n, howMany, stride = 264, 5, 264 + 3
	rng := rand.New(rand.NewSource(42))
	ws := workspace.New()
	p, pf := Get(n), GetSplit[float32](n)
	if p.Bluestein() || pf.Bluestein() {
		t.Fatalf("n=%d takes Bluestein", n)
	}
	src := randVec(rng, (howMany-1)*stride+n)
	want := make([]complex128, len(src))
	for i := 0; i < howMany; i++ {
		p.Forward(want[i*stride:i*stride+n], src[i*stride:i*stride+n])
	}
	for _, a := range []*workspace.Arena{ws, nil} {
		got := make([]complex128, len(src))
		p.ForwardBatch(a, got, src, howMany, stride)
		inPlace := append([]complex128(nil), src...)
		p.ForwardBatch(a, inPlace, inPlace, howMany, stride)
		for i := 0; i < howMany; i++ {
			for k := i * stride; k < i*stride+n; k++ {
				if got[k] != want[k] || inPlace[k] != want[k] {
					t.Fatalf("arena=%v: batch diverges from single at vec %d bin %d", a != nil, i, k-i*stride)
				}
			}
		}
	}

	srcRe, srcIm := make([]float32, len(src)), make([]float32, len(src))
	for k, v := range src {
		srcRe[k], srcIm[k] = float32(real(v)), float32(imag(v))
	}
	wantRe, wantIm := make([]float32, len(src)), make([]float32, len(src))
	for i := 0; i < howMany; i++ {
		o := i * stride
		pf.Forward(wantRe[o:o+n], wantIm[o:o+n], srcRe[o:o+n], srcIm[o:o+n])
	}
	gotRe, gotIm := make([]float32, len(src)), make([]float32, len(src))
	pf.ForwardBatch(ws, gotRe, gotIm, srcRe, srcIm, howMany, stride)
	for i := 0; i < howMany; i++ {
		for k := i * stride; k < i*stride+n; k++ {
			if gotRe[k] != wantRe[k] || gotIm[k] != wantIm[k] {
				t.Fatalf("float32 batch diverges from single at vec %d bin %d", i, k-i*stride)
			}
		}
	}
}
