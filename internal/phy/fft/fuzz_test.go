package fft

import (
	"math/cmplx"
	"testing"
)

// FuzzRoundTrip covers both instances of the engine for arbitrary lengths
// and data: Inverse(Forward(x)) == x on the float64 one (through the
// complex128 facade), and the float32 forward transform against the
// float64 one on the same float32-rounded input, within the accuracy
// sweep's pinned float32 bound.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint16(8), int64(1))
	f.Add(uint16(97), int64(-5))
	f.Add(uint16(2400), int64(123456))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64) {
		n := int(nRaw)%3000 + 1
		p := Get(n)
		src := make([]complex128, n)
		s := uint64(seed)
		for i := range src {
			// Cheap deterministic filler; values bounded to avoid overflow
			// noise in the tolerance.
			s = s*6364136223846793005 + 1442695040888963407
			re := float64(int32(s>>33)) / (1 << 28)
			im := float64(int32(s)) / (1 << 28)
			src[i] = complex(re, im)
		}
		freq := make([]complex128, n)
		back := make([]complex128, n)
		p.Forward(freq, src)
		p.Inverse(back, freq)
		var scale float64
		for _, v := range src {
			if m := cmplx.Abs(v); m > scale {
				scale = m
			}
		}
		tol := 1e-9 * float64(n) * (scale + 1)
		for i := range src {
			if cmplx.Abs(back[i]-src[i]) > tol {
				t.Fatalf("n=%d: round trip error at %d: %v vs %v", n, i, back[i], src[i])
			}
		}

		srcRe, srcIm := make([]float32, n), make([]float32, n)
		for i, v := range src {
			srcRe[i], srcIm[i] = float32(real(v)), float32(imag(v))
			src[i] = complex(float64(srcRe[i]), float64(srcIm[i]))
		}
		p.Forward(freq, src)
		dstRe, dstIm := make([]float32, n), make([]float32, n)
		GetSplit[float32](n).Forward(dstRe, dstIm, srcRe, srcIm)
		checkF32Spectrum(t, "fuzz", n, dstRe, dstIm, freq)
	})
}
