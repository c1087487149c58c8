package modulation

import (
	"fmt"
	"math"
	"testing"

	"ltephy/internal/rng"
)

// The split-plane entry's contracts at both widths: the float64 instance
// is DemapEVM bit for bit, the float32 one is held to the exhaustive
// oracle in float32 ulps and to the float64 demapper within float32
// rounding.

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

// TestDemapF32MatchesFloat64 pins the planes demapper on identical
// (float32-representable) inputs: at float64 it must equal DemapEVM bit
// for bit; at float32 hard decisions must agree exactly and LLR magnitudes
// to float32 rounding.
func TestDemapF32MatchesFloat64(t *testing.T) {
	for _, s := range []Scheme{QPSK, QAM16, QAM64} {
		// sigma 0.015 keeps even 64-QAM's levels (spacing 0.31) ~10 sigma
		// apart, so every hard decision is reliable.
		re, im, syms, bits := noisySymsF32(t, s, 500, 0.015, 7)
		nv := 0.02
		want, wantEVM := s.DemapEVM(nil, syms, nv)
		re64, im64 := split(syms)
		got64, gotEVM := DemapEVMPlanes(s, nil, re64, im64, nv)
		if gotEVM != wantEVM {
			t.Errorf("%v: float64 planes EVM %g, DemapEVM %g", s, gotEVM, wantEVM)
		}
		for i := range want {
			if math.Float64bits(got64[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v: float64 planes LLR[%d] = %g, DemapEVM %g", s, i, got64[i], want[i])
			}
		}
		got, _ := DemapEVMPlanes(s, nil, re, im, float32(nv))
		if len(got) != len(want) {
			t.Fatalf("%v: %d LLRs, want %d", s, len(got), len(want))
		}
		for i := range want {
			d := math.Abs(got[i] - want[i])
			if d > 1e-4*(1+math.Abs(want[i])) {
				t.Errorf("%v: LLR[%d] = %g, want %g", s, i, got[i], want[i])
			}
		}
		// At this comfortable SNR every hard decision must match the
		// transmitted bits on both paths.
		hard := HardDecide(nil, got)
		for i := range bits {
			if hard[i] != bits[i] {
				t.Fatalf("%v: bit %d decided %d, want %d", s, i, hard[i], bits[i])
			}
		}
	}
}

// TestDemapF32MatchesExhaustive holds the float32 planes demapper to the
// same correctness contract as the float64 one, in float32 ulps, against
// the oracle run in float32 arithmetic. Its fused EVM must not depend on
// the noise variance.
func TestDemapF32MatchesExhaustive(t *testing.T) {
	r := rng.New(11)
	for _, s := range []Scheme{QPSK, QAM16, QAM64} {
		check := func(re, im []float32, nv float32) {
			t.Helper()
			checkAgainstExhaustive(t, s, re, im, nv,
				func() ([]float64, float64) { return DemapEVMPlanes(s, nil, re, im, nv) },
				func() float64 { _, evm := DemapEVMPlanes(s, nil, re, im, 1); return evm })
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

// TestEVMF32MatchesFloat64 pins the float32 planes EVM against the float64
// EVM on identical inputs.
func TestEVMF32MatchesFloat64(t *testing.T) {
	for _, s := range []Scheme{QPSK, QAM16, QAM64} {
		re, im, syms, _ := noisySymsF32(t, s, 400, 0.08, 9)
		want := s.EVM(syms)
		_, got := DemapEVMPlanes(s, nil, re, im, 1)
		if d := math.Abs(got - want); d > 1e-5*(1+want) {
			t.Errorf("%v: float32 EVM = %g, want %g", s, got, want)
		}
	}
	if _, got := DemapEVMPlanes[float32](QPSK, nil, nil, nil, 1); got != 0 {
		t.Errorf("empty float32 EVM = %g, want 0", got)
	}
}

// TestDemapF32PanicsOnBadNoise covers the planes entry's noiseVar guard,
// including NaN, at both widths, and its plane-length check.
func TestDemapF32PanicsOnBadNoise(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("planes demapper accepted %s", what)
			}
		}()
		f()
	}
	for _, nv := range []float64{0, -1, math.NaN()} {
		mustPanic(fmt.Sprintf("float32 noiseVar %g", nv), func() {
			DemapEVMPlanes(QPSK, nil, []float32{1}, []float32{1}, float32(nv))
		})
		mustPanic(fmt.Sprintf("float64 noiseVar %g", nv), func() {
			DemapEVMPlanes(QPSK, nil, []float64{1}, []float64{1}, nv)
		})
	}
	mustPanic("planes of different length", func() {
		DemapEVMPlanes(QPSK, nil, []float32{1, 2}, []float32{1}, 1)
	})
}

// BenchmarkDemapEVMF32 is BenchmarkDemapEVM through the planes entry at
// float32, so the two widths can be compared without a traced run.
func BenchmarkDemapEVMF32(b *testing.B) {
	r := rng.New(2)
	re, im := make([]float32, 1200), make([]float32, 1200)
	for i := range re {
		re[i], im[i] = float32(r.NormFloat64()), float32(r.NormFloat64())
	}
	for _, s := range schemes {
		b.Run(s.String(), func(b *testing.B) {
			var dst []float64
			var evm float64
			for i := 0; i < b.N; i++ {
				dst, evm = DemapEVMPlanes(s, dst[:0], re, im, 0.1)
			}
			benchSink = evm
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/bit")
		})
	}
}
