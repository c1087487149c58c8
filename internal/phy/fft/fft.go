// Package fft implements discrete Fourier transforms of arbitrary length on
// split re/im planes, generic over the element width (float32 or float64),
// with a complex128 facade for callers that hold interleaved data.
//
// LTE uplink allocations span nPRB*12 subcarriers for nPRB in [2, 200], so
// transform lengths are rarely powers of two and routinely carry a prime
// factor above 7 (22 PRB is 264 = 2^3*3*11). Every such length runs on one
// iterative, stage-planned Stockham engine: NewSplit(n) decomposes n into an
// explicit list of radix stages (4 first, then 2, 3, 5, then the remaining
// odd primes in ascending order) with one precomputed twiddle table per
// stage, so the transform loop performs no modulo arithmetic, no recursion
// and no per-level scratch copies — each stage is a single pass between two
// ping-pong buffers. Radices 2, 3, 4 and 5 have specialised butterflies
// (radix-4 folds what would be two radix-2 levels into one pass); every odd
// prime from 7 up shares one kernel that folds the conjugate-symmetric input
// pairs once and then needs only real cos/sin tables. Its cost per point
// grows with the radix, so the planner compares the schedule's operation
// count with that of Bluestein's chirp-z algorithm — two transforms of the
// cheapest 7-smooth length m >= 2n-1 on this same engine — and takes
// whichever is lower: every allocation up to 110 PRB is direct, Bluestein
// remains for lengths whose largest prime factor is 127 or above.
// Bluestein reports which path a plan took.
//
// One engine, two widths. SplitPlan[F] is the only set of kernels; the
// receiver runs its float64 instance as the default and accuracy oracle and
// its float32 instance as the narrow path. Tables are computed in float64
// and converted to F once at construction. Plan is the complex128 facade
// (the transmitter, the OFDM front end, tools and tests): it splits its
// input into float64 planes, runs the float64 instance and merges back, so
// its results are bit for bit those of the float64 planes.
//
// The inverse transform is the forward transform followed by an in-place
// index reversal and 1/N scale (IDFT(x)[k] = DFT(x)[(N-k) mod N]/N), so
// both directions share one set of kernels and twiddle tables.
//
// Batched transforms: ForwardBatch/InverseBatch run howMany transforms
// over vectors laid out at a fixed stride, sharing one scratch
// acquisition and one plan across the whole batch — the shape of the
// receiver's (antenna x layer) channel-estimation grid and
// (symbol x layer) demodulation grid. The ...Strided variants allow
// distinct source and destination strides for scatter/gather layouts.
//
// A plan precomputes its stage tables and is safe for concurrent use by
// multiple goroutines as long as each call supplies its own destination.
// Per-call scratch comes from one of two sources: the ...In and ...Batch
// methods draw it from a caller-supplied per-worker workspace.Arena — the
// receiver hot path, zero-allocation in steady state — while the plain
// Forward/Inverse draw from per-plan sync.Pools, the fallback for callers
// without an arena.
//
// Scratch-safety audit: every sync.Pool here is a field of the plan (or its
// bluestein) it serves, so pooled buffers are keyed by plan identity and
// two plans never exchange buffers, even for the same length (the caches
// memoise one plan per length and width; a Bluestein plan's inner plan is
// private to it). All pooled buffers are full plan length; every stage pass
// overwrites its whole output buffer, so no stale contents can leak between
// interleaved transforms of different sizes on one goroutine. The odd-prime
// kernel's fold buffer is a stack array it fills before reading, per
// butterfly. The one buffer with a read-before-write region is Bluestein's
// padded chirp input x[n:m), which the engine explicitly zeroes on
// acquisition from a pool and between batch iterations, and which an Arena
// guarantees zeroed on handout; TestInterleavedLengths and
// TestBluesteinArenaZeroTail pin this on lengths that take Bluestein.
package fft

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"ltephy/internal/phy/workspace"
)

// maxOddRadix is the largest odd prime factor the direct path accepts; it
// sizes the odd-prime kernel's stack fold buffer. The operation-count
// comparison hands lengths to Bluestein well below it (no length up to
// 20000 with a prime factor above 139 is cheaper direct), so it binds only
// as a guard.
const maxOddRadix = 251

// stage is one pass of the iterative Stockham pipeline. Entering stage i
// the data is organised as s interleaved sequences of length r*m; the pass
// splits each into r sequences of length m:
//
//	y[q + s*(r*p + j)] = sum_c x[q + s*(p + c*m)] * W_r^{j*c} * W_{r*m}^{j*p}
//
// for p in [0,m), j in [0,r), q in [0,s), with W_k = exp(-2*pi*i/k). The
// twiddles W_{r*m}^{j*p} are precomputed in twRe/twIm, laid out per
// butterfly: tw[(r-1)*p + j-1] (j = 0 needs none; on the last pass, m = 1,
// they are all 1). The radix kernels below hard-code the W_r^{j*c} sub-DFT
// for r = 2, 3, 4, 5; odd primes from 7 up use stageOdd with the real
// cos/sin tables.
type stage[F workspace.Float] struct {
	r, m, s    int
	twRe, twIm []F // (r-1)*m twiddles, tw[(r-1)*p+j-1] = W_{r*m}^{j*p}
	// Odd-prime kernel only, h = r/2: cos[(j-1)*h+c-1] = cos(2*pi*j*c/r) and
	// sin likewise, for j, c in [1, h].
	cos, sin []F
}

// newStage builds the pass (r, m, s) with its twiddle table and, for an
// odd prime above 5, its cos/sin tables, computed in float64 and converted
// to F once.
func newStage[F workspace.Float](r, m, s int) stage[F] {
	st := stage[F]{r: r, m: m, s: s}
	st.twRe = make([]F, (r-1)*m)
	st.twIm = make([]F, (r-1)*m)
	step := -2 * math.Pi / float64(r*m)
	for p := 0; p < m; p++ {
		for j := 1; j < r; j++ {
			theta := step * float64(j*p)
			st.twRe[(r-1)*p+j-1] = F(math.Cos(theta))
			st.twIm[(r-1)*p+j-1] = F(math.Sin(theta))
		}
	}
	if r > 5 {
		// j*c is reduced mod r first so the argument stays small.
		h := r / 2
		st.cos = make([]F, h*h)
		st.sin = make([]F, h*h)
		for j := 1; j <= h; j++ {
			for c := 1; c <= h; c++ {
				theta := 2 * math.Pi * float64((j*c)%r) / float64(r)
				st.cos[(j-1)*h+c-1] = F(math.Cos(theta))
				st.sin[(j-1)*h+c-1] = F(math.Sin(theta))
			}
		}
	}
	return st
}

// SplitPlan holds the precomputed state needed to transform split-plane
// vectors of a fixed length N at element width F. Create one with NewSplit
// (or the shared GetSplit cache) and reuse it; construction is O(N log N)
// and transforms are O(N log N) with no allocation when an Arena (or the
// warm per-plan pool) supplies scratch.
type SplitPlan[F workspace.Float] struct {
	n       int
	stages  []stage[F]    // direct path; empty when n == 1 or blu != nil
	blu     *bluestein[F] // non-nil when the plan takes Bluestein
	ops     float64       // see Ops
	scratch sync.Pool     // *[]F of length 2n: re plane then im plane
}

// NewSplit returns a split-plane transform plan for vectors of length n.
// It panics if n <= 0; a zero-length transform has no meaning here and
// indicates a bug in the caller's size computation.
func NewSplit[F workspace.Float](n int) *SplitPlan[F] {
	if n <= 0 {
		panic(fmt.Sprintf("fft: invalid transform length %d", n))
	}
	radices, m, ops := choosePath(n)
	p := &SplitPlan[F]{n: n, ops: ops}
	if m == 0 {
		s, cur := 1, n
		for _, r := range radices {
			p.stages = append(p.stages, newStage[F](r, cur/r, s))
			cur /= r
			s *= r
		}
	} else {
		p.blu = newBluestein[F](n, m)
	}
	p.scratch.New = func() any {
		s := make([]F, 2*n)
		return &s
	}
	return p
}

// Len returns the transform length the plan was built for.
func (p *SplitPlan[F]) Len() int { return p.n }

// Bluestein reports whether the plan runs the chirp-z algorithm instead of
// direct radix stages — the choice the planner made by operation count.
func (p *SplitPlan[F]) Bluestein() bool { return p.blu != nil }

// Ops estimates the number of scalar floating-point operations a single
// Forward transform performs: on the direct path the sum over the plan's
// stages of their butterfly counts times the per-butterfly kernel cost, on
// the Bluestein path the two inner transforms plus the scale, chirp and
// pointwise multiplies. It is the figure the planner compared to pick the
// path. The cycle-cost model (internal/cost) documents why its workload
// model is smoother than this estimate.
func (p *SplitPlan[F]) Ops() float64 { return p.ops }

// choosePath decides how length n is transformed: direct with the returned
// radix schedule (m == 0), or Bluestein with convolution length m. ops is
// the winner's operation count. A 7-smooth n is always direct — Bluestein's
// inner plans end the recursion there — and any other n takes whichever
// count is lower.
func choosePath(n int) (radices []int, m int, ops float64) {
	radices = radixSchedule(n)
	direct := scheduleOps(n, radices)
	if n == 1 {
		return radices, 0, direct
	}
	largest := radices[len(radices)-1] // ascending odd primes: the last is the largest
	if largest <= 7 {
		return radices, 0, direct
	}
	m, blu := bluesteinPlan(n)
	if largest <= maxOddRadix && direct <= blu {
		return radices, 0, direct
	}
	return nil, m, blu
}

// radixSchedule factors n into the Stockham pass order: radix-4 passes
// first (each folding two radix-2 levels), one leftover radix 2, then the
// odd primes in ascending order. Larger radices late keep the earlier
// passes on the cheapest kernels and put the largest odd prime — whose
// kernel is quadratic in the radix — on the last pass, which needs no
// twiddles. n == 1 yields no radices.
func radixSchedule(n int) []int {
	var radices []int
	rem := n
	for rem%4 == 0 {
		radices = append(radices, 4)
		rem /= 4
	}
	if rem%2 == 0 {
		radices = append(radices, 2)
		rem /= 2
	}
	for r := 3; r*r <= rem; r += 2 {
		for rem%r == 0 {
			radices = append(radices, r)
			rem /= r
		}
	}
	if rem > 1 {
		radices = append(radices, rem)
	}
	return radices
}

// scheduleOps is the operation count of one transform on the given
// schedule: per stage, its n/r butterflies times the kernel's cost.
func scheduleOps(n int, radices []int) float64 {
	if n == 1 {
		return 1
	}
	ops := 0.0
	for _, r := range radices {
		ops += float64(n/r) * butterflyOps(r)
	}
	return ops
}

// bluesteinPlan returns the cheapest convolution length for a length-n
// chirp-z transform — the 7-smooth m in [2n-1, next power of two] whose
// direct plan has the lowest operation count (n = 2388: 5120 rather than
// 8192) — and the operation count of the whole transform on it: the
// forward and inverse transforms of size m (the kernel's is paid at
// construction), the inverse's 1/m scale, the pointwise multiply and the
// two chirp multiplies.
func bluesteinPlan(n int) (m int, ops float64) {
	inner := math.Inf(1)
	for c := 2*n - 1; ; c++ {
		if !isSmooth(c) {
			continue
		}
		if o := scheduleOps(c, radixSchedule(c)); o < inner {
			m, inner = c, o
		}
		if c&(c-1) == 0 {
			return m, 2*inner + 8*float64(m) + 12*float64(n)
		}
	}
}

// butterflyOps is the approximate scalar-flop cost of one radix-r
// butterfly (complex add = 2, complex mul = 6, real-by-complex scale = 2).
func butterflyOps(r int) float64 {
	switch r {
	case 2:
		return 10 // 2 cadd + 1 twiddle cmul
	case 3:
		return 26 // 4 cadd + 2 scale + 2 twiddle cmul
	case 4:
		return 34 // 8 cadd + 3 twiddle cmul
	case 5:
		return 72 // 12 cadd + 8 scale + 4 twiddle cmul
	default:
		// Odd-prime kernel, h = r/2: the fold and the output pairs are 4h
		// cadd, the DC sum h cadd and r-1 twiddle cmul; each of the h*h
		// (row, column) terms is two scales and two cadd.
		h := float64(r / 2)
		return 8*h*h + 22*h
	}
}

// isSmooth reports whether every prime factor of n is <= 7.
func isSmooth(n int) bool {
	for _, f := range []int{2, 3, 5, 7} {
		for n%f == 0 {
			n /= f
		}
	}
	return n == 1
}

// Forward computes the forward DFT of the split-plane vector (srcRe,
// srcIm) into (dstRe, dstIm):
//
//	dst[k] = sum_j src[j] * exp(-2*pi*i*j*k/N)
//
// All planes must have length N; dst may alias src plane-for-plane.
// Scratch comes from the plan's pool; hot paths with a per-worker arena
// should call ForwardIn instead.
func (p *SplitPlan[F]) Forward(dstRe, dstIm, srcRe, srcIm []F) {
	p.ForwardIn(nil, dstRe, dstIm, srcRe, srcIm)
}

// ForwardIn is Forward with per-call scratch drawn from ws (zero heap
// allocation in steady state). A nil ws falls back to the plan's pool.
func (p *SplitPlan[F]) ForwardIn(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm []F) {
	if len(dstRe) != p.n || len(dstIm) != p.n || len(srcRe) != p.n || len(srcIm) != p.n {
		panic(fmt.Sprintf("fft: plan length %d, got dst %d/%d src %d/%d",
			p.n, len(dstRe), len(dstIm), len(srcRe), len(srcIm)))
	}
	p.ForwardBatchStrided(ws, dstRe, dstIm, srcRe, srcIm, 1, p.n, p.n)
}

// getScratch acquires the ping-pong planes (and, when needSecond, the
// aliased-source copy planes) from the arena or the plan's pool. It is
// the acquire half of the getScratch/putScratch pair; the caller
// brackets the arena lifetime with its own Mark/Release.
//
//ltephy:owns-scratch
func (p *SplitPlan[F]) getScratch(ws *workspace.Arena, needSecond bool) (scrRe, scrIm, scr2Re, scr2Im []F, t1, t2 *[]F) {
	if ws != nil {
		scrRe, scrIm = workspace.Floats[F](ws, p.n), workspace.Floats[F](ws, p.n)
		if needSecond {
			scr2Re, scr2Im = workspace.Floats[F](ws, p.n), workspace.Floats[F](ws, p.n)
		}
		return
	}
	t1 = p.scratch.Get().(*[]F)
	scrRe, scrIm = (*t1)[:p.n], (*t1)[p.n:]
	if needSecond {
		t2 = p.scratch.Get().(*[]F)
		scr2Re, scr2Im = (*t2)[:p.n], (*t2)[p.n:]
	}
	return
}

func (p *SplitPlan[F]) putScratch(ws *workspace.Arena, t1, t2 *[]F) {
	if ws != nil {
		return // released by the caller's Mark/Release bracket
	}
	p.scratch.Put(t1)
	if t2 != nil {
		p.scratch.Put(t2)
	}
}

// transformOne runs the stage pipeline for one vector. scr must be a full
// plan-length buffer whenever the plan has more than one stage or dst
// aliases src; scr2 additionally when dst aliases src with an odd stage
// count above one. The pipeline ping-pongs between dst and scr with the
// parity arranged so the final pass lands in dst.
func (p *SplitPlan[F]) transformOne(dstRe, dstIm, srcRe, srcIm, scrRe, scrIm, scr2Re, scr2Im []F) {
	k := len(p.stages)
	if &dstRe[0] == &srcRe[0] {
		if k == 1 {
			copy(scrRe, srcRe)
			copy(scrIm, srcIm)
			srcRe, srcIm = scrRe, scrIm
		} else if k&1 == 1 {
			copy(scr2Re, srcRe)
			copy(scr2Im, srcIm)
			srcRe, srcIm = scr2Re, scr2Im
		}
	}
	curRe, curIm := srcRe, srcIm
	for i := range p.stages {
		outRe, outIm := scrRe, scrIm
		if (k-i)&1 == 1 {
			outRe, outIm = dstRe, dstIm
		}
		runStage(&p.stages[i], outRe, outIm, curRe, curIm)
		curRe, curIm = outRe, outIm
	}
}

// Inverse computes the inverse DFT scaled by 1/N, the exact inverse of
// Forward. dst may alias src plane-for-plane.
func (p *SplitPlan[F]) Inverse(dstRe, dstIm, srcRe, srcIm []F) {
	p.InverseIn(nil, dstRe, dstIm, srcRe, srcIm)
}

// InverseIn is Inverse with per-call scratch drawn from ws. A nil ws falls
// back to the plan's pool. It computes the forward transform and applies
// the reversal identity IDFT(x)[k] = DFT(x)[(N-k) mod N] / N in place —
// one extra O(N) pass, against the two conjugation passes of the
// conjugate-trick inverse.
func (p *SplitPlan[F]) InverseIn(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm []F) {
	p.ForwardIn(ws, dstRe, dstIm, srcRe, srcIm)
	reverseScale(dstRe, dstIm)
}

// reverseScale maps v[k] <- v[(n-k) mod n] / n in place on both planes.
func reverseScale[F workspace.Float](re, im []F) {
	n := len(re)
	im = im[:n]
	s := 1 / F(n)
	re[0] *= s
	im[0] *= s
	for i, j := 1, n-1; i < j; i, j = i+1, j-1 {
		re[i], re[j] = re[j]*s, re[i]*s
		im[i], im[j] = im[j]*s, im[i]*s
	}
	if n > 1 && n&1 == 0 {
		m := n / 2
		re[m] *= s
		im[m] *= s
	}
}

// ForwardBatch computes howMany forward DFTs in one call: transform i
// reads the src planes' [i*stride : i*stride+N] and writes the same window
// of the dst planes. stride must be >= N. The whole batch shares one
// scratch acquisition and the plan's stage tables; per-vector results are
// bit-identical to howMany ForwardIn calls. dst and src must either be the
// same planes (with the same stride) or not overlap.
func (p *SplitPlan[F]) ForwardBatch(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm []F, howMany, stride int) {
	p.ForwardBatchStrided(ws, dstRe, dstIm, srcRe, srcIm, howMany, stride, stride)
}

// ForwardBatchStrided is ForwardBatch with distinct destination and source
// strides: transform i reads src[i*srcStride:][:N] and writes
// dst[i*dstStride:][:N] — the scatter/gather form grid-shaped callers use
// to land transforms directly in strided result layouts.
func (p *SplitPlan[F]) ForwardBatchStrided(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm []F, howMany, dstStride, srcStride int) {
	if howMany <= 0 {
		return
	}
	p.checkBatch(min(len(dstRe), len(dstIm)), howMany, dstStride, "dst")
	p.checkBatch(min(len(srcRe), len(srcIm)), howMany, srcStride, "src")
	if p.blu != nil {
		p.blu.transformBatch(ws, dstRe, dstIm, srcRe, srcIm, howMany, dstStride, srcStride)
		return
	}
	k := len(p.stages)
	if k == 0 {
		for i := 0; i < howMany; i++ {
			dstRe[i*dstStride], dstIm[i*dstStride] = srcRe[i*srcStride], srcIm[i*srcStride]
		}
		return
	}
	aliased := &dstRe[0] == &srcRe[0]
	if k == 1 && !aliased {
		// Single pass straight src -> dst: no scratch at all.
		for i := 0; i < howMany; i++ {
			d, s := i*dstStride, i*srcStride
			runStage(&p.stages[0], dstRe[d:d+p.n], dstIm[d:d+p.n], srcRe[s:s+p.n], srcIm[s:s+p.n])
		}
		return
	}
	// Mark/Release bracket the whole call unconditionally (both are
	// nil-arena no-ops), keeping the scratch lifetime explicit even on the
	// pooled fallback path. An odd stage count writes dst first, so an
	// aliased src is copied aside; even counts write scr first.
	mk := ws.Mark()
	scrRe, scrIm, scr2Re, scr2Im, t1, t2 := p.getScratch(ws, aliased && k > 1 && k&1 == 1)
	for i := 0; i < howMany; i++ {
		d, s := i*dstStride, i*srcStride
		p.transformOne(dstRe[d:d+p.n], dstIm[d:d+p.n], srcRe[s:s+p.n], srcIm[s:s+p.n],
			scrRe, scrIm, scr2Re, scr2Im)
	}
	ws.Release(mk)
	p.putScratch(ws, t1, t2)
}

// InverseBatch computes howMany inverse DFTs in one call, with the same
// layout contract as ForwardBatch.
func (p *SplitPlan[F]) InverseBatch(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm []F, howMany, stride int) {
	p.InverseBatchStrided(ws, dstRe, dstIm, srcRe, srcIm, howMany, stride, stride)
}

// InverseBatchStrided is InverseBatch with distinct destination and source
// strides.
func (p *SplitPlan[F]) InverseBatchStrided(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm []F, howMany, dstStride, srcStride int) {
	p.ForwardBatchStrided(ws, dstRe, dstIm, srcRe, srcIm, howMany, dstStride, srcStride)
	for i := 0; i < howMany; i++ {
		d := i * dstStride
		reverseScale(dstRe[d:d+p.n], dstIm[d:d+p.n])
	}
}

func (p *SplitPlan[F]) checkBatch(have, howMany, stride int, which string) {
	if stride < p.n {
		panic(fmt.Sprintf("fft: batch %s stride %d below plan length %d", which, stride, p.n))
	}
	if need := (howMany-1)*stride + p.n; have < need {
		panic(fmt.Sprintf("fft: batch %s has %d elements, %d transforms at stride %d need %d",
			which, have, howMany, stride, need))
	}
}

// runStage dispatches one Stockham pass to its radix kernel. Every kernel
// writes each output element exactly once, so y's prior contents never
// leak into the output.
func runStage[F workspace.Float](st *stage[F], yre, yim, xre, xim []F) {
	switch st.r {
	case 4:
		stage4(st, yre, yim, xre, xim)
	case 2:
		stage2(st, yre, yim, xre, xim)
	case 3:
		stage3(st, yre, yim, xre, xim)
	case 5:
		stage5(st, yre, yim, xre, xim)
	default:
		stageOdd(st, yre, yim, xre, xim)
	}
}

// stage2 is the radix-2 butterfly pass.
func stage2[F workspace.Float](st *stage[F], yre, yim, xre, xim []F) {
	m, s := st.m, st.s
	twRe, twIm := st.twRe, st.twIm
	if s == 1 {
		// First pass: contiguous data, no inner q loop.
		for p := 0; p < m; p++ {
			ar, ai := xre[p], xim[p]
			br, bi := xre[p+m], xim[p+m]
			yre[2*p], yim[2*p] = ar+br, ai+bi
			dr, di := ar-br, ai-bi
			wr, wi := twRe[p], twIm[p]
			yre[2*p+1] = dr*wr - di*wi
			yim[2*p+1] = dr*wi + di*wr
		}
		return
	}
	for p := 0; p < m; p++ {
		wr, wi := twRe[p], twIm[p]
		xar, xai := xre[s*p:s*p+s], xim[s*p:s*p+s]
		xbr, xbi := xre[s*(p+m):s*(p+m)+s], xim[s*(p+m):s*(p+m)+s]
		yar, yai := yre[2*s*p:2*s*p+s], yim[2*s*p:2*s*p+s]
		ybr, ybi := yre[s*(2*p+1):s*(2*p+1)+s], yim[s*(2*p+1):s*(2*p+1)+s]
		if p == 0 {
			// w == 1: skip the twiddle multiply on the widest column.
			for q := 0; q < s; q++ {
				ar, ai := xar[q], xai[q]
				br, bi := xbr[q], xbi[q]
				yar[q], yai[q] = ar+br, ai+bi
				ybr[q], ybi[q] = ar-br, ai-bi
			}
			continue
		}
		for q := 0; q < s; q++ {
			ar, ai := xar[q], xai[q]
			br, bi := xbr[q], xbi[q]
			yar[q], yai[q] = ar+br, ai+bi
			dr, di := ar-br, ai-bi
			ybr[q] = dr*wr - di*wi
			ybi[q] = dr*wi + di*wr
		}
	}
}

// stage4 is the radix-4 butterfly pass — two folded radix-2 levels with a
// single set of twiddles and one trip through memory.
func stage4[F workspace.Float](st *stage[F], yre, yim, xre, xim []F) {
	m, s := st.m, st.s
	twRe, twIm := st.twRe, st.twIm
	if s == 1 {
		for p := 0; p < m; p++ {
			a0r, a0i := xre[p], xim[p]
			a1r, a1i := xre[p+m], xim[p+m]
			a2r, a2i := xre[p+2*m], xim[p+2*m]
			a3r, a3i := xre[p+3*m], xim[p+3*m]
			t02pr, t02pi := a0r+a2r, a0i+a2i
			t02mr, t02mi := a0r-a2r, a0i-a2i
			t13pr, t13pi := a1r+a3r, a1i+a3i
			t13mr, t13mi := a1r-a3r, a1i-a3i
			jtr, jti := t13mi, -t13mr // -i * (a1 - a3)
			yre[4*p], yim[4*p] = t02pr+t13pr, t02pi+t13pi
			w1r, w1i := twRe[3*p], twIm[3*p]
			w2r, w2i := twRe[3*p+1], twIm[3*p+1]
			w3r, w3i := twRe[3*p+2], twIm[3*p+2]
			br, bi := t02mr+jtr, t02mi+jti
			yre[4*p+1] = br*w1r - bi*w1i
			yim[4*p+1] = br*w1i + bi*w1r
			cr, ci := t02pr-t13pr, t02pi-t13pi
			yre[4*p+2] = cr*w2r - ci*w2i
			yim[4*p+2] = cr*w2i + ci*w2r
			dr, di := t02mr-jtr, t02mi-jti
			yre[4*p+3] = dr*w3r - di*w3i
			yim[4*p+3] = dr*w3i + di*w3r
		}
		return
	}
	for p := 0; p < m; p++ {
		w1r, w1i := twRe[3*p], twIm[3*p]
		w2r, w2i := twRe[3*p+1], twIm[3*p+1]
		w3r, w3i := twRe[3*p+2], twIm[3*p+2]
		x0r, x0i := xre[s*p:s*p+s], xim[s*p:s*p+s]
		x1r, x1i := xre[s*(p+m):s*(p+m)+s], xim[s*(p+m):s*(p+m)+s]
		x2r, x2i := xre[s*(p+2*m):s*(p+2*m)+s], xim[s*(p+2*m):s*(p+2*m)+s]
		x3r, x3i := xre[s*(p+3*m):s*(p+3*m)+s], xim[s*(p+3*m):s*(p+3*m)+s]
		y0r, y0i := yre[4*s*p:4*s*p+s], yim[4*s*p:4*s*p+s]
		y1r, y1i := yre[s*(4*p+1):s*(4*p+1)+s], yim[s*(4*p+1):s*(4*p+1)+s]
		y2r, y2i := yre[s*(4*p+2):s*(4*p+2)+s], yim[s*(4*p+2):s*(4*p+2)+s]
		y3r, y3i := yre[s*(4*p+3):s*(4*p+3)+s], yim[s*(4*p+3):s*(4*p+3)+s]
		if p == 0 {
			for q := 0; q < s; q++ {
				a0r, a0i := x0r[q], x0i[q]
				a1r, a1i := x1r[q], x1i[q]
				a2r, a2i := x2r[q], x2i[q]
				a3r, a3i := x3r[q], x3i[q]
				t02pr, t02pi := a0r+a2r, a0i+a2i
				t02mr, t02mi := a0r-a2r, a0i-a2i
				t13pr, t13pi := a1r+a3r, a1i+a3i
				t13mr, t13mi := a1r-a3r, a1i-a3i
				jtr, jti := t13mi, -t13mr
				y0r[q], y0i[q] = t02pr+t13pr, t02pi+t13pi
				y1r[q], y1i[q] = t02mr+jtr, t02mi+jti
				y2r[q], y2i[q] = t02pr-t13pr, t02pi-t13pi
				y3r[q], y3i[q] = t02mr-jtr, t02mi-jti
			}
			continue
		}
		for q := 0; q < s; q++ {
			a0r, a0i := x0r[q], x0i[q]
			a1r, a1i := x1r[q], x1i[q]
			a2r, a2i := x2r[q], x2i[q]
			a3r, a3i := x3r[q], x3i[q]
			t02pr, t02pi := a0r+a2r, a0i+a2i
			t02mr, t02mi := a0r-a2r, a0i-a2i
			t13pr, t13pi := a1r+a3r, a1i+a3i
			t13mr, t13mi := a1r-a3r, a1i-a3i
			jtr, jti := t13mi, -t13mr
			y0r[q], y0i[q] = t02pr+t13pr, t02pi+t13pi
			br, bi := t02mr+jtr, t02mi+jti
			y1r[q] = br*w1r - bi*w1i
			y1i[q] = br*w1i + bi*w1r
			cr, ci := t02pr-t13pr, t02pi-t13pi
			y2r[q] = cr*w2r - ci*w2i
			y2i[q] = cr*w2i + ci*w2r
			dr, di := t02mr-jtr, t02mi-jti
			y3r[q] = dr*w3r - di*w3i
			y3i[q] = dr*w3i + di*w3r
		}
	}
}

// sin3 = sin(2*pi/3): the imaginary part of the radix-3 root.
const sin3 = 0.8660254037844386467637231707529362

// stage3 is the radix-3 butterfly pass.
func stage3[F workspace.Float](st *stage[F], yre, yim, xre, xim []F) {
	m, s := st.m, st.s
	twRe, twIm := st.twRe, st.twIm
	s3 := F(sin3)
	for p := 0; p < m; p++ {
		w1r, w1i := twRe[2*p], twIm[2*p]
		w2r, w2i := twRe[2*p+1], twIm[2*p+1]
		x0r, x0i := xre[s*p:s*p+s], xim[s*p:s*p+s]
		x1r, x1i := xre[s*(p+m):s*(p+m)+s], xim[s*(p+m):s*(p+m)+s]
		x2r, x2i := xre[s*(p+2*m):s*(p+2*m)+s], xim[s*(p+2*m):s*(p+2*m)+s]
		y0r, y0i := yre[3*s*p:3*s*p+s], yim[3*s*p:3*s*p+s]
		y1r, y1i := yre[s*(3*p+1):s*(3*p+1)+s], yim[s*(3*p+1):s*(3*p+1)+s]
		y2r, y2i := yre[s*(3*p+2):s*(3*p+2)+s], yim[s*(3*p+2):s*(3*p+2)+s]
		for q := 0; q < s; q++ {
			a0r, a0i := x0r[q], x0i[q]
			a1r, a1i := x1r[q], x1i[q]
			a2r, a2i := x2r[q], x2i[q]
			ur, ui := a1r+a2r, a1i+a2i
			vr, vi := a1r-a2r, a1i-a2i
			cr, ci := a0r-0.5*ur, a0i-0.5*ui
			wr, wi := s3*vi, -s3*vr // -i*sin3*v
			y0r[q], y0i[q] = a0r+ur, a0i+ui
			pr, pi := cr+wr, ci+wi
			y1r[q] = pr*w1r - pi*w1i
			y1i[q] = pr*w1i + pi*w1r
			qr, qi := cr-wr, ci-wi
			y2r[q] = qr*w2r - qi*w2i
			y2i[q] = qr*w2i + qi*w2r
		}
	}
}

// Radix-5 constants: cos/sin of 2*pi/5 and 4*pi/5.
const (
	cos51 = 0.3090169943749474241022934171828191
	cos52 = -0.8090169943749474241022934171828191
	sin51 = 0.9510565162951535721164393333793821
	sin52 = 0.5877852522924731291687059546390728
)

// stage5 is the radix-5 butterfly pass (Winograd-style grouping of
// conjugate root pairs). The cosine terms are summed before a0 is added;
// TestReceiverGoldenDigest pins that order at both widths.
func stage5[F workspace.Float](st *stage[F], yre, yim, xre, xim []F) {
	m, s := st.m, st.s
	twRe, twIm := st.twRe, st.twIm
	c1, c2, s1, s2 := F(cos51), F(cos52), F(sin51), F(sin52)
	for p := 0; p < m; p++ {
		w1r, w1i := twRe[4*p], twIm[4*p]
		w2r, w2i := twRe[4*p+1], twIm[4*p+1]
		w3r, w3i := twRe[4*p+2], twIm[4*p+2]
		w4r, w4i := twRe[4*p+3], twIm[4*p+3]
		x0r, x0i := xre[s*p:s*p+s], xim[s*p:s*p+s]
		x1r, x1i := xre[s*(p+m):s*(p+m)+s], xim[s*(p+m):s*(p+m)+s]
		x2r, x2i := xre[s*(p+2*m):s*(p+2*m)+s], xim[s*(p+2*m):s*(p+2*m)+s]
		x3r, x3i := xre[s*(p+3*m):s*(p+3*m)+s], xim[s*(p+3*m):s*(p+3*m)+s]
		x4r, x4i := xre[s*(p+4*m):s*(p+4*m)+s], xim[s*(p+4*m):s*(p+4*m)+s]
		y0r, y0i := yre[5*s*p:5*s*p+s], yim[5*s*p:5*s*p+s]
		y1r, y1i := yre[s*(5*p+1):s*(5*p+1)+s], yim[s*(5*p+1):s*(5*p+1)+s]
		y2r, y2i := yre[s*(5*p+2):s*(5*p+2)+s], yim[s*(5*p+2):s*(5*p+2)+s]
		y3r, y3i := yre[s*(5*p+3):s*(5*p+3)+s], yim[s*(5*p+3):s*(5*p+3)+s]
		y4r, y4i := yre[s*(5*p+4):s*(5*p+4)+s], yim[s*(5*p+4):s*(5*p+4)+s]
		for q := 0; q < s; q++ {
			a0r, a0i := x0r[q], x0i[q]
			a1r, a1i := x1r[q], x1i[q]
			a2r, a2i := x2r[q], x2i[q]
			a3r, a3i := x3r[q], x3i[q]
			a4r, a4i := x4r[q], x4i[q]
			t1r, t1i := a1r+a4r, a1i+a4i
			t2r, t2i := a2r+a3r, a2i+a3i
			t3r, t3i := a1r-a4r, a1i-a4i
			t4r, t4i := a2r-a3r, a2i-a3i
			m1r := a0r + (c1*t1r + c2*t2r)
			m1i := a0i + (c1*t1i + c2*t2i)
			m2r := a0r + (c2*t1r + c1*t2r)
			m2i := a0i + (c2*t1i + c1*t2i)
			u1r := s1*t3r + s2*t4r
			u1i := s1*t3i + s2*t4i
			u2r := s2*t3r - s1*t4r
			u2i := s2*t3i - s1*t4i
			m3r, m3i := u1i, -u1r // -i*u1
			m4r, m4i := u2i, -u2r // -i*u2
			y0r[q], y0i[q] = a0r+t1r+t2r, a0i+t1i+t2i
			b1r, b1i := m1r+m3r, m1i+m3i
			y1r[q] = b1r*w1r - b1i*w1i
			y1i[q] = b1r*w1i + b1i*w1r
			b2r, b2i := m2r+m4r, m2i+m4i
			y2r[q] = b2r*w2r - b2i*w2i
			y2i[q] = b2r*w2i + b2i*w2r
			b3r, b3i := m2r-m4r, m2i-m4i
			y3r[q] = b3r*w3r - b3i*w3i
			y3i[q] = b3r*w3i + b3i*w3r
			b4r, b4i := m1r-m3r, m1i-m3i
			y4r[q] = b4r*w4r - b4i*w4i
			y4i[q] = b4r*w4i + b4i*w4r
		}
	}
}

// stageOdd is the pass for any odd radix r (the primes from 7 up). With
// h = r/2 and the input pairs folded once, u_c = a_c + a_{r-c} and
// v_c = a_c - a_{r-c}, the r-point sub-DFT needs only real coefficients:
//
//	X_0               = a_0 + sum_c u_c
//	X_j, X_{r-j}      = A_j -/+ i*B_j
//	A_j = a_0 + sum_c cos(2*pi*j*c/r) u_c,  B_j = sum_c sin(2*pi*j*c/r) v_c
//
// for j, c in [1, h] — a quarter of the real multiplies of the r*r complex
// matrix form. The last pass (m == 1) skips its all-ones twiddles.
func stageOdd[F workspace.Float](st *stage[F], yre, yim, xre, xim []F) {
	r, m, s := st.r, st.m, st.s
	h := r / 2
	var fold [4 * (maxOddRadix / 2)]F
	ur, ui := fold[:h], fold[h:2*h]
	vr, vi := fold[2*h:3*h], fold[3*h:4*h]
	sm := s * m
	for p := 0; p < m; p++ {
		twRe := st.twRe[(r-1)*p : (r-1)*(p+1)]
		twIm := st.twIm[(r-1)*p : (r-1)*(p+1)]
		for q := 0; q < s; q++ {
			in := s*p + q
			a0r, a0i := xre[in], xim[in]
			dr, di := a0r, a0i
			for c := 0; c < h; c++ {
				ia, ib := in+sm*(c+1), in+sm*(r-1-c)
				pr, pi := xre[ia]+xre[ib], xim[ia]+xim[ib]
				ur[c], ui[c] = pr, pi
				vr[c], vi[c] = xre[ia]-xre[ib], xim[ia]-xim[ib]
				dr += pr
				di += pi
			}
			out := s*r*p + q
			yre[out], yim[out] = dr, di
			for j := 0; j < h; j++ {
				cj := st.cos[j*h : j*h+h]
				sj := st.sin[j*h : j*h+h]
				ar, ai := a0r, a0i
				var br, bi F
				for c, cv := range cj {
					sv := sj[c]
					ar += cv * ur[c]
					ai += cv * ui[c]
					br += sv * vr[c]
					bi += sv * vi[c]
				}
				lr, li := ar+bi, ai-br // A - i*B
				hr, hi := ar-bi, ai+br // A + i*B
				if m > 1 {
					wr, wi := twRe[j], twIm[j]
					lr, li = lr*wr-li*wi, lr*wi+li*wr
					wr, wi = twRe[r-2-j], twIm[r-2-j]
					hr, hi = hr*wr-hi*wi, hr*wi+hi*wr
				}
				lo, up := out+s*(j+1), out+s*(r-1-j)
				yre[lo], yim[lo] = lr, li
				yre[up], yim[up] = hr, hi
			}
		}
	}
}

// bluestein implements the chirp-z transform: an arbitrary-length DFT
// expressed as a cyclic convolution, evaluated with 7-smooth transforms on
// the same engine at the same width.
type bluestein[F workspace.Float] struct {
	n        int
	m        int           // 7-smooth convolution length, m >= 2n-1 (bluesteinPlan)
	inner    *SplitPlan[F] // direct plan of length m
	aRe, aIm []F           // chirp: exp(-pi*i*k^2/n)
	bRe, bIm []F           // transform of the chirp-conjugate kernel, length m
	pool     sync.Pool     // *[]F of length 2m (one buffer's planes)
}

func newBluestein[F workspace.Float](n, m int) *bluestein[F] {
	b := &bluestein[F]{n: n, m: m, inner: NewSplit[F](m)}
	b.aRe = make([]F, n)
	b.aIm = make([]F, n)
	kernelRe := make([]F, m)
	kernelIm := make([]F, m)
	for k := 0; k < n; k++ {
		// k*k mod 2n keeps the argument small so cos/sin stay accurate
		// for large k.
		q := (k * k) % (2 * n)
		theta := -math.Pi * float64(q) / float64(n)
		c, s := math.Cos(theta), math.Sin(theta)
		b.aRe[k], b.aIm[k] = F(c), F(s)
		kernelRe[k], kernelIm[k] = F(c), F(-s)
		if k > 0 {
			kernelRe[m-k], kernelIm[m-k] = F(c), F(-s)
		}
	}
	b.bRe = make([]F, m)
	b.bIm = make([]F, m)
	b.inner.Forward(b.bRe, b.bIm, kernelRe, kernelIm)
	b.pool.New = func() any {
		s := make([]F, 2*m)
		return &s
	}
	return b
}

// core runs one chirp-z transform using caller-provided length-m plane
// pairs. x[n:m) MUST be zero on entry on both planes (the zero padding of
// the chirp-multiplied input); on exit x holds convolution output over its
// whole length, so a caller reusing x must re-zero that tail first.
func (b *bluestein[F]) core(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm, xRe, xIm, yRe, yIm []F) {
	for k := 0; k < b.n; k++ {
		sr, si := srcRe[k], srcIm[k]
		ar, ai := b.aRe[k], b.aIm[k]
		xRe[k] = sr*ar - si*ai
		xIm[k] = sr*ai + si*ar
	}
	b.inner.ForwardIn(ws, yRe, yIm, xRe, xIm)
	for i := range yRe {
		yr, yi := yRe[i], yIm[i]
		br, bi := b.bRe[i], b.bIm[i]
		yRe[i] = yr*br - yi*bi
		yIm[i] = yr*bi + yi*br
	}
	b.inner.InverseIn(ws, xRe, xIm, yRe, yIm)
	for k := 0; k < b.n; k++ {
		xr, xi := xRe[k], xIm[k]
		ar, ai := b.aRe[k], b.aIm[k]
		dstRe[k] = xr*ar - xi*ai
		dstIm[k] = xr*ai + xi*ar
	}
}

// getBuffers acquires the two length-m convolution plane pairs. Arena
// planes arrive zeroed by the workspace contract (TestBluesteinArenaZeroTail
// pins the x[n:m) dependence); pooled x gets its tail zeroed explicitly —
// the head is fully overwritten by core — and y needs no zeroing at all.
//
// caller holds the returned mark and hands it back to putBuffers.
//
//ltephy:owns-scratch — acquire half of the getBuffers/putBuffers pair; the
func (b *bluestein[F]) getBuffers(ws *workspace.Arena) (xRe, xIm, yRe, yIm []F, mk workspace.Mark, xp, yp *[]F) {
	if ws != nil {
		mk = ws.Mark()
		return workspace.Floats[F](ws, b.m), workspace.Floats[F](ws, b.m),
			workspace.Floats[F](ws, b.m), workspace.Floats[F](ws, b.m), mk, nil, nil
	}
	xp = b.pool.Get().(*[]F)
	yp = b.pool.Get().(*[]F)
	xRe, xIm = (*xp)[:b.m], (*xp)[b.m:]
	yRe, yIm = (*yp)[:b.m], (*yp)[b.m:]
	clear(xRe[b.n:])
	clear(xIm[b.n:])
	return xRe, xIm, yRe, yIm, workspace.Mark{}, xp, yp
}

func (b *bluestein[F]) putBuffers(ws *workspace.Arena, mk workspace.Mark, xp, yp *[]F) {
	if ws != nil {
		ws.Release(mk)
		return
	}
	b.pool.Put(xp)
	b.pool.Put(yp)
}

// transformBatch shares one buffer acquisition across the whole batch,
// re-zeroing only x's padding tail between transforms.
func (b *bluestein[F]) transformBatch(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm []F, howMany, dstStride, srcStride int) {
	xRe, xIm, yRe, yIm, mk, xp, yp := b.getBuffers(ws)
	for i := 0; i < howMany; i++ {
		if i > 0 {
			clear(xRe[b.n:])
			clear(xIm[b.n:])
		}
		d, s := i*dstStride, i*srcStride
		b.core(ws, dstRe[d:d+b.n], dstIm[d:d+b.n], srcRe[s:s+b.n], srcIm[s:s+b.n], xRe, xIm, yRe, yIm)
	}
	b.putBuffers(ws, mk, xp, yp)
}

// Plan is the complex128 facade over the float64 engine, for callers that
// hold interleaved data. Each call splits its input into float64 planes,
// runs the float64 SplitPlan and merges the result back, so a Plan
// transform is bit-identical to the float64 planes' one. Create one with
// New (or the shared Get cache); it is safe for concurrent use as long as
// each call supplies its own destination slice.
type Plan struct {
	sp      *SplitPlan[float64]
	scratch sync.Pool // *[]float64 of length 4n: the src and dst planes
}

// New returns a complex128 transform plan for vectors of length n.
// It panics if n <= 0.
func New(n int) *Plan { return newPlan(NewSplit[float64](n)) }

func newPlan(sp *SplitPlan[float64]) *Plan {
	p := &Plan{sp: sp}
	p.scratch.New = func() any {
		s := make([]float64, 4*sp.n)
		return &s
	}
	return p
}

// Len returns the transform length the plan was built for.
func (p *Plan) Len() int { return p.sp.n }

// Bluestein reports whether the plan runs the chirp-z algorithm.
func (p *Plan) Bluestein() bool { return p.sp.Bluestein() }

// Ops is the float64 engine's operation count; see SplitPlan.Ops.
func (p *Plan) Ops() float64 { return p.sp.ops }

// Forward computes the forward DFT of src into dst:
//
//	dst[k] = sum_j src[j] * exp(-2*pi*i*j*k/N)
//
// dst and src must both have length N. dst and src may be the same slice.
// Scratch comes from the plan's pool; hot paths with a per-worker arena
// should call ForwardIn instead.
func (p *Plan) Forward(dst, src []complex128) { p.ForwardIn(nil, dst, src) }

// ForwardIn is Forward with per-call scratch drawn from ws (zero heap
// allocation in steady state). A nil ws falls back to the plan's pool.
func (p *Plan) ForwardIn(ws *workspace.Arena, dst, src []complex128) {
	p.checkLen(dst, src)
	p.run(ws, dst, src, 1, p.sp.n, p.sp.n, false)
}

// Inverse computes the inverse DFT scaled by 1/N, the exact inverse of
// Forward. dst and src may be the same slice.
func (p *Plan) Inverse(dst, src []complex128) { p.InverseIn(nil, dst, src) }

// InverseIn is Inverse with per-call scratch drawn from ws. A nil ws falls
// back to the plan's pool.
func (p *Plan) InverseIn(ws *workspace.Arena, dst, src []complex128) {
	p.checkLen(dst, src)
	p.run(ws, dst, src, 1, p.sp.n, p.sp.n, true)
}

// ForwardBatch computes howMany forward DFTs in one call: transform i
// reads src[i*stride : i*stride+N] and writes dst[i*stride : i*stride+N].
// stride must be >= N. Per-vector results are bit-identical to howMany
// ForwardIn calls. dst and src must either be the same slice (with the
// same stride) or not overlap.
func (p *Plan) ForwardBatch(ws *workspace.Arena, dst, src []complex128, howMany, stride int) {
	p.ForwardBatchStrided(ws, dst, src, howMany, stride, stride)
}

// ForwardBatchStrided is ForwardBatch with distinct destination and source
// strides: transform i reads src[i*srcStride:][:N] and writes
// dst[i*dstStride:][:N].
func (p *Plan) ForwardBatchStrided(ws *workspace.Arena, dst, src []complex128, howMany, dstStride, srcStride int) {
	p.run(ws, dst, src, howMany, dstStride, srcStride, false)
}

// InverseBatch computes howMany inverse DFTs in one call, with the same
// layout contract as ForwardBatch.
func (p *Plan) InverseBatch(ws *workspace.Arena, dst, src []complex128, howMany, stride int) {
	p.InverseBatchStrided(ws, dst, src, howMany, stride, stride)
}

// InverseBatchStrided is InverseBatch with distinct destination and source
// strides.
func (p *Plan) InverseBatchStrided(ws *workspace.Arena, dst, src []complex128, howMany, dstStride, srcStride int) {
	p.run(ws, dst, src, howMany, dstStride, srcStride, true)
}

// run transforms the batch one vector at a time through the float64
// planes: split src into planes, transform, merge into dst. Every vector
// is split before its result is merged, so dst may alias src.
func (p *Plan) run(ws *workspace.Arena, dst, src []complex128, howMany, dstStride, srcStride int, inverse bool) {
	if howMany <= 0 {
		return
	}
	n := p.sp.n
	p.sp.checkBatch(len(dst), howMany, dstStride, "dst")
	p.sp.checkBatch(len(src), howMany, srcStride, "src")
	mk := ws.Mark()
	var buf []float64
	var tp *[]float64
	if ws != nil {
		buf = ws.Float(4 * n)
	} else {
		tp = p.scratch.Get().(*[]float64)
		buf = *tp
	}
	sr, si, dr, di := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:]
	for i := 0; i < howMany; i++ {
		for k, v := range src[i*srcStride : i*srcStride+n] {
			sr[k], si[k] = real(v), imag(v)
		}
		if inverse {
			p.sp.InverseIn(ws, dr, di, sr, si)
		} else {
			p.sp.ForwardIn(ws, dr, di, sr, si)
		}
		out := dst[i*dstStride : i*dstStride+n]
		for k := range out {
			out[k] = complex(dr[k], di[k])
		}
	}
	ws.Release(mk)
	if tp != nil {
		p.scratch.Put(tp)
	}
}

func (p *Plan) checkLen(dst, src []complex128) {
	if len(dst) != p.sp.n || len(src) != p.sp.n {
		panic(fmt.Sprintf("fft: plan length %d, got dst %d src %d", p.sp.n, len(dst), len(src)))
	}
}

// planKey identifies a cached plan by size and element width in bytes:
// 4 and 8 for the float32 and float64 split plans, 16 for the complex128
// facade, so the widths for one length coexist in one cache instead of
// evicting each other.
type planKey struct {
	n     int
	width uintptr
}

// planCache memoises plans by (size, width); Get and GetSplit are the
// concurrency-safe accessors used across the receiver so repeated
// subframe sizes share twiddle tables. RWMutex-guarded (not a sync.Map)
// and struct-keyed so lookups don't box the key — both accessors sit on
// the per-task hot path and must not allocate. Values are *Plan or
// *SplitPlan[F] per the key's width; storing the pointer in the interface
// value doesn't allocate either.
var (
	planMu    sync.RWMutex
	planCache = map[planKey]any{}
)

// lookupPlan is an uncontended RLock over one map read; plans are
// memoised per size so steady state never holds the write lock.
//
//ltephy:blocking-ok
func lookupPlan(k planKey) any {
	planMu.RLock()
	p := planCache[k]
	planMu.RUnlock()
	return p
}

// storePlan takes the write lock only on first sight of a new FFT size
// (cold warm-up); the critical section is one map read + write.
//
//ltephy:blocking-ok
func storePlan(k planKey, p any) any {
	planMu.Lock()
	if cached, ok := planCache[k]; ok {
		p = cached
	} else {
		planCache[k] = p
	}
	planMu.Unlock()
	return p
}

// GetSplit returns a shared split-plane plan for length n at width F,
// creating it on first use.
func GetSplit[F workspace.Float](n int) *SplitPlan[F] {
	var z F
	k := planKey{n: n, width: unsafe.Sizeof(z)}
	if p := lookupPlan(k); p != nil {
		return p.(*SplitPlan[F])
	}
	return storePlan(k, NewSplit[F](n)).(*SplitPlan[F])
}

// Get returns a shared complex128 plan for length n, creating it on first
// use. It wraps the shared float64 split plan of the same length.
func Get(n int) *Plan {
	k := planKey{n: n, width: unsafe.Sizeof(complex128(0))}
	if p := lookupPlan(k); p != nil {
		return p.(*Plan)
	}
	return storePlan(k, newPlan(GetSplit[float64](n))).(*Plan)
}
