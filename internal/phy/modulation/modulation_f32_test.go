package modulation

import (
	"math"
	"testing"

	"ltephy/internal/rng"
)

// noisySymsF32 returns noisy constellation symbols in both layouts plus
// the transmitted bits.
func noisySymsF32(t *testing.T, s Scheme, count int, sigma float64, seed uint64) (re, im []float32, syms []complex128, bits []uint8) {
	t.Helper()
	r := rng.New(seed)
	q := s.Bits()
	bits = make([]uint8, count*q)
	for i := range bits {
		bits[i] = uint8(r.Bit())
	}
	clean := s.Map(nil, bits)
	re = make([]float32, count)
	im = make([]float32, count)
	syms = make([]complex128, count)
	for k, v := range clean {
		// Add noise in float64, then narrow once: the complex128 reference
		// sees the float32-rounded symbols so both demappers get identical
		// inputs.
		re[k] = float32(real(v) + sigma*r.NormFloat64())
		im[k] = float32(imag(v) + sigma*r.NormFloat64())
		syms[k] = complex(float64(re[k]), float64(im[k]))
	}
	return re, im, syms, bits
}

// TestDemapF32MatchesFloat64 pins the float32 demapper against the
// float64 demapper on identical (float32-representable) inputs: hard
// decisions must agree exactly and LLR magnitudes must agree to float32
// rounding.
func TestDemapF32MatchesFloat64(t *testing.T) {
	for _, s := range []Scheme{QPSK, QAM16, QAM64} {
		// sigma 0.015 keeps even 64-QAM's levels (spacing 0.31) ~10 sigma
		// apart, so every hard decision is reliable.
		re, im, syms, bits := noisySymsF32(t, s, 500, 0.015, 7)
		nv := 0.02
		want := s.Demap(nil, syms, nv)
		got := s.DemapF32(nil, re, im, float32(nv))
		if len(got) != len(want) {
			t.Fatalf("%v: %d LLRs, want %d", s, len(got), len(want))
		}
		for i := range want {
			d := math.Abs(float64(got[i]) - want[i])
			if d > 1e-4*(1+math.Abs(want[i])) {
				t.Errorf("%v: LLR[%d] = %g, want %g", s, i, got[i], want[i])
			}
		}
		// At this comfortable SNR every hard decision must match the
		// transmitted bits on both paths.
		hard := HardDecideF32(nil, got)
		for i := range bits {
			if hard[i] != bits[i] {
				t.Fatalf("%v: bit %d decided %d, want %d", s, i, hard[i], bits[i])
			}
		}
	}
}

// TestDemapF32MatchesExhaustive holds the float32 demapper to the same
// correctness contract as the float64 one, in float32 ulps, against the
// oracle run in float32 arithmetic.
func TestDemapF32MatchesExhaustive(t *testing.T) {
	r := rng.New(11)
	for _, s := range []Scheme{QPSK, QAM16, QAM64} {
		check := func(re, im []float32, nv float32) {
			t.Helper()
			checkAgainstExhaustive(t, s, re, im, nv,
				func() ([]float32, float64) { return s.DemapEVMF32(nil, re, im, nv) },
				func() float64 { return s.EVMF32(re, im) })
		}
		for trial := 0; trial < 50; trial++ {
			scale := 1 + 2*float64(trial%2)
			re, im := make([]float32, 40), make([]float32, 40)
			for i := range re {
				re[i], im[i] = float32(scale*r.NormFloat64()), float32(scale*r.NormFloat64())
			}
			check(re, im, float32(0.01+r.Float64()))
		}
		re, im := gridSymbols[float32](s)
		for _, nv := range []float32{1e-3, 0.37, 50} {
			check(re, im, nv)
		}
	}
}

// TestEVMF32MatchesFloat64 pins the float32 EVM against the float64 EVM
// on identical inputs.
func TestEVMF32MatchesFloat64(t *testing.T) {
	for _, s := range []Scheme{QPSK, QAM16, QAM64} {
		re, im, syms, _ := noisySymsF32(t, s, 400, 0.08, 9)
		want := s.EVM(syms)
		got := s.EVMF32(re, im)
		if d := math.Abs(got - want); d > 1e-5*(1+want) {
			t.Errorf("%v: EVMF32 = %g, want %g", s, got, want)
		}
	}
	if got := QPSK.EVMF32(nil, nil); got != 0 {
		t.Errorf("empty EVMF32 = %g, want 0", got)
	}
}

// TestDemapF32PanicsOnBadNoise covers the noiseVar guard, including NaN.
func TestDemapF32PanicsOnBadNoise(t *testing.T) {
	for _, nv := range []float32{0, -1, float32(math.NaN())} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DemapF32 accepted noiseVar %g", nv)
				}
			}()
			QPSK.DemapF32(nil, []float32{1}, []float32{1}, nv)
		}()
	}
}

// BenchmarkDemapEVMF32 is BenchmarkDemapEVM at the kernel's float32
// instantiation, so the two widths can be compared without a traced run.
func BenchmarkDemapEVMF32(b *testing.B) {
	r := rng.New(2)
	re, im := make([]float32, 1200), make([]float32, 1200)
	for i := range re {
		re[i], im[i] = float32(r.NormFloat64()), float32(r.NormFloat64())
	}
	for _, s := range schemes {
		b.Run(s.String(), func(b *testing.B) {
			var dst []float32
			var evm float64
			for i := 0; i < b.N; i++ {
				dst, evm = s.DemapEVMF32(dst[:0], re, im, 0.1)
			}
			benchSink = evm
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/bit")
		})
	}
}
