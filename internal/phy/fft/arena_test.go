package fft

import (
	"math/rand"
	"testing"

	"ltephy/internal/phy/workspace"
)

// TestInterleavedLengths pins the scratch-safety audit: transforms of many
// different lengths — smooth, prime-radix (264, 31) and Bluestein (199,
// 331) — interleaved on a single goroutine must not contaminate each other
// through pooled scratch. The pools are per-plan; a cross-length reuse bug
// would show up here as a wrong result on the second or later pass over
// the sizes.
func TestInterleavedLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{2400, 12, 264, 1024, 31, 300, 199, 60, 331, 144}
	if !Get(199).Bluestein() || !Get(331).Bluestein() || Get(264).Bluestein() {
		t.Fatal("199 and 331 must take Bluestein and 264 the direct path for this test to cover both")
	}
	srcs := make([][]complex128, len(sizes))
	wants := make([][]complex128, len(sizes))
	for i, n := range sizes {
		srcs[i] = randVec(rng, n)
		wants[i] = naiveDFT(srcs[i])
	}
	const tol = 1e-8
	// Three passes so every plan's pool has warm buffers from prior,
	// differently-sized neighbours by the time it runs again.
	for pass := 0; pass < 3; pass++ {
		for i, n := range sizes {
			dst := make([]complex128, n)
			Get(n).Forward(dst, srcs[i])
			if d := maxAbsDiff(dst, wants[i]); d > tol*float64(n) {
				t.Fatalf("pass %d n=%d: max |fft-naive| = %g", pass, n, d)
			}
		}
	}
}

// TestArenaMatchesPool verifies the arena-backed ...In transforms are
// bit-identical to the pool-backed ones, for both directions, across all
// structural cases (including in-place calls).
func TestArenaMatchesPool(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := workspace.New()
	for _, n := range testSizes {
		p := Get(n)
		src := randVec(rng, n)

		fwdPool := make([]complex128, n)
		p.Forward(fwdPool, src)
		fwdArena := make([]complex128, n)
		m := ws.Mark()
		p.ForwardIn(ws, fwdArena, src)
		ws.Release(m)
		for i := range fwdPool {
			if fwdPool[i] != fwdArena[i] {
				t.Fatalf("n=%d forward: arena path diverges at bin %d: %v vs %v",
					n, i, fwdPool[i], fwdArena[i])
			}
		}

		invPool := make([]complex128, n)
		p.Inverse(invPool, fwdPool)
		invArena := make([]complex128, n)
		m = ws.Mark()
		p.InverseIn(ws, invArena, fwdArena)
		ws.Release(m)
		for i := range invPool {
			if invPool[i] != invArena[i] {
				t.Fatalf("n=%d inverse: arena path diverges at bin %d", n, i)
			}
		}

		// In-place arena forward (exercises the aliasing copy path).
		inPlace := append([]complex128(nil), src...)
		m = ws.Mark()
		p.ForwardIn(ws, inPlace, inPlace)
		ws.Release(m)
		for i := range fwdPool {
			if fwdPool[i] != inPlace[i] {
				t.Fatalf("n=%d in-place forward: arena path diverges at bin %d", n, i)
			}
		}
	}
}

// TestBluesteinArenaZeroTail pins the zeroed-memory guarantee Bluestein's
// arena path depends on (ISSUE 2 satellite): core requires the chirp input
// padding x[n:m) to be zero, and the arena path takes that straight from
// workspace handout rather than clearing explicitly. Two checks: the
// workspace contract itself (a released-then-regrabbed buffer must come
// back zeroed, not holding the garbage written before release), and an
// end-to-end stale-tail corruption hunt — Bluestein transforms of
// interleaved lengths on one arena deliberately dirtied by large smooth
// transforms in between, compared bit-exactly against the pool path.
func TestBluesteinArenaZeroTail(t *testing.T) {
	ws := workspace.New()
	// Contract check: dirty a buffer, release, re-grab the same region.
	m := ws.Mark()
	buf := ws.Complex(4096)
	for i := range buf {
		buf[i] = complex(1e9, -1e9)
	}
	ws.Release(m)
	m = ws.Mark()
	buf = ws.Complex(4096)
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("arena re-handout not zeroed at %d: %v", i, v)
		}
	}
	ws.Release(m)

	// Corruption hunt: every Bluestein length's x[n:m) tail lands on arena
	// memory the preceding transforms filled with nonzero data.
	rng := rand.New(rand.NewSource(13))
	bluLens := []int{199, 331, 1201, 2388}
	srcs := make([][]complex128, len(bluLens))
	wants := make([][]complex128, len(bluLens))
	for i, n := range bluLens {
		if !Get(n).Bluestein() {
			t.Fatalf("n=%d no longer takes Bluestein: pick a length that does", n)
		}
		srcs[i] = randVec(rng, n)
		wants[i] = make([]complex128, n)
		Get(n).Forward(wants[i], srcs[i]) // pool path reference
	}
	dirty := randVec(rng, 2400)
	dirtyDst := make([]complex128, 2400)
	for pass := 0; pass < 3; pass++ {
		for i, n := range bluLens {
			m := ws.Mark()
			// Smear nonzero data across the arena region the next
			// transform's scratch will occupy.
			Get(2400).ForwardIn(ws, dirtyDst, dirty)
			ws.Release(m)
			got := make([]complex128, n)
			m = ws.Mark()
			Get(n).ForwardIn(ws, got, srcs[i])
			ws.Release(m)
			for k := range got {
				if got[k] != wants[i][k] {
					t.Fatalf("pass %d n=%d: arena Bluestein diverges from pool at bin %d (stale tail?)",
						pass, n, k)
				}
			}
		}
	}
}

// TestArenaTransformZeroAlloc asserts the arena path performs no heap
// allocation in steady state, for a smooth, a prime-radix and a Bluestein
// size.
func TestArenaTransformZeroAlloc(t *testing.T) {
	ws := workspace.New()
	for _, n := range []int{1200, 264, 199} {
		p := Get(n)
		src := randVec(rand.New(rand.NewSource(3)), n)
		dst := make([]complex128, n)
		run := func() {
			m := ws.Mark()
			p.ForwardIn(ws, dst, src)
			p.InverseIn(ws, dst, dst)
			ws.Release(m)
		}
		run() // warm the arena
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("n=%d: arena transform allocates %.1f times per run", n, allocs)
		}
	}
}
