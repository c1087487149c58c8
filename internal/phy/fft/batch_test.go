package fft

import (
	"math/rand"
	"testing"

	"ltephy/internal/phy/workspace"
)

// batchSizes covers the structural cases of the batched API: trivial,
// single-stage (4, and the lone radix-97 pass), even and odd stage counts,
// a prime-radix last pass (264) and Bluestein (199).
var batchSizes = []int{1, 4, 12, 48, 96, 144, 97, 264, 199, 300}

// TestForwardBatchMatchesLooped pins the batched API's contract: a batch
// of howMany transforms is bit-identical to howMany individual ForwardIn
// calls over the same vectors, for both scratch sources.
func TestForwardBatchMatchesLooped(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ws := workspace.New()
	for _, n := range batchSizes {
		p := Get(n)
		for _, howMany := range []int{1, 2, 5} {
			stride := n + 3 // deliberately padded layout
			src := randVec(rng, (howMany-1)*stride+n)
			want := make([]complex128, len(src))
			for i := 0; i < howMany; i++ {
				p.ForwardIn(ws, want[i*stride:i*stride+n], src[i*stride:i*stride+n])
			}
			for _, useArena := range []bool{true, false} {
				got := make([]complex128, len(src))
				a := ws
				if !useArena {
					a = nil
				}
				p.ForwardBatch(a, got, src, howMany, stride)
				for i := 0; i < howMany; i++ {
					for k := 0; k < n; k++ {
						if got[i*stride+k] != want[i*stride+k] {
							t.Fatalf("n=%d howMany=%d arena=%v: batch diverges at vec %d bin %d",
								n, howMany, useArena, i, k)
						}
					}
				}
			}
		}
	}
}

// TestInverseBatchMatchesLooped does the same for the inverse direction.
func TestInverseBatchMatchesLooped(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ws := workspace.New()
	for _, n := range batchSizes {
		p := Get(n)
		const howMany = 3
		src := randVec(rng, howMany*n)
		want := make([]complex128, len(src))
		for i := 0; i < howMany; i++ {
			p.InverseIn(ws, want[i*n:(i+1)*n], src[i*n:(i+1)*n])
		}
		got := make([]complex128, len(src))
		p.InverseBatch(ws, got, src, howMany, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: inverse batch diverges at %d", n, i)
			}
		}
	}
}

// TestBatchStrided exercises distinct source and destination strides — the
// scatter/gather layout the channel estimator uses to write both slots'
// estimates through one call.
func TestBatchStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ws := workspace.New()
	for _, n := range []int{12, 72, 97, 199} {
		p := Get(n)
		const howMany = 4
		srcStride := n
		dstStride := 3 * n // scatter into a wider layout
		src := randVec(rng, howMany*srcStride)
		got := make([]complex128, (howMany-1)*dstStride+n)
		p.ForwardBatchStrided(ws, got, src, howMany, dstStride, srcStride)
		for i := 0; i < howMany; i++ {
			want := make([]complex128, n)
			p.ForwardIn(ws, want, src[i*srcStride:i*srcStride+n])
			for k := 0; k < n; k++ {
				if got[i*dstStride+k] != want[k] {
					t.Fatalf("n=%d: strided batch diverges at vec %d bin %d", n, i, k)
				}
			}
		}
	}
}

// TestBatchInPlace covers the aliased batch (dst == src, same stride),
// which exercises the odd-stage-count copy-aside path per vector.
func TestBatchInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ws := workspace.New()
	for _, n := range batchSizes {
		p := Get(n)
		const howMany = 3
		src := randVec(rng, howMany*n)
		want := make([]complex128, len(src))
		for i := 0; i < howMany; i++ {
			p.ForwardIn(ws, want[i*n:(i+1)*n], src[i*n:(i+1)*n])
		}
		inPlace := append([]complex128(nil), src...)
		p.ForwardBatch(ws, inPlace, inPlace, howMany, n)
		for i := range want {
			if inPlace[i] != want[i] {
				t.Fatalf("n=%d: in-place batch diverges at %d", n, i)
			}
		}
	}
}

// TestBatchZeroAlloc asserts the arena-backed batch path stays heap-free
// in steady state, on the prime-radix and Bluestein paths too.
func TestBatchZeroAlloc(t *testing.T) {
	ws := workspace.New()
	for _, n := range []int{144, 264, 199} {
		p := Get(n)
		const howMany = 6
		src := randVec(rand.New(rand.NewSource(25)), howMany*n)
		dst := make([]complex128, howMany*n)
		run := func() {
			m := ws.Mark()
			p.ForwardBatch(ws, dst, src, howMany, n)
			p.InverseBatch(ws, dst, dst, howMany, n)
			ws.Release(m)
		}
		run() // warm the arena
		if allocs := testing.AllocsPerRun(30, run); allocs != 0 {
			t.Errorf("n=%d: batch transform allocates %.1f times per run", n, allocs)
		}
	}
}

// TestBatchPanicsOnBadLayout checks the layout validation: short buffers
// and sub-length strides must panic rather than transform garbage.
func TestBatchPanicsOnBadLayout(t *testing.T) {
	p := New(8)
	for name, f := range map[string]func(){
		"short dst":    func() { p.ForwardBatch(nil, make([]complex128, 15), make([]complex128, 16), 2, 8) },
		"short src":    func() { p.ForwardBatch(nil, make([]complex128, 16), make([]complex128, 12), 2, 8) },
		"small stride": func() { p.ForwardBatch(nil, make([]complex128, 16), make([]complex128, 16), 2, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Batched-vs-looped microbenchmarks (make bench-fft): the batch should win
// through shared scratch acquisition and table locality; the gap is the
// justification for the BatchStage conversions in internal/uplink.

func benchBatchVsLooped(b *testing.B, n, howMany int) {
	p := Get(n)
	ws := workspace.New()
	src := randVec(rand.New(rand.NewSource(26)), howMany*n)
	dst := make([]complex128, howMany*n)
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := ws.Mark()
			p.ForwardBatch(ws, dst, src, howMany, n)
			ws.Release(m)
		}
	})
	b.Run("looped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := ws.Mark()
			for v := 0; v < howMany; v++ {
				p.ForwardIn(ws, dst[v*n:(v+1)*n], src[v*n:(v+1)*n])
			}
			ws.Release(m)
		}
	})
}

func BenchmarkForwardBatch(b *testing.B) {
	for _, n := range []int{24, 144, 600, 1200} {
		b.Run(sizeName(n), func(b *testing.B) { benchBatchVsLooped(b, n, 8) })
	}
}

func BenchmarkForwardBatchPrimeRadix(b *testing.B) {
	for _, n := range []int{264, 1164, 2388} {
		b.Run(sizeName(n), func(b *testing.B) { benchBatchVsLooped(b, n, 8) })
	}
}
