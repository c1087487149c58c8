// Package fft implements discrete Fourier transforms of arbitrary length
// over complex128 data.
//
// LTE uplink allocations span nPRB*12 subcarriers for nPRB in [2, 200], so
// transform lengths are rarely powers of two and routinely carry a prime
// factor above 7 (22 PRB is 264 = 2^3*3*11). Every such length runs on one
// iterative, stage-planned Stockham engine: New(n) decomposes n into an
// explicit list of radix stages (4 first, then 2, 3, 5, then the remaining
// odd primes in ascending order) with one precomputed twiddle table per
// stage, so the transform loop performs no modulo arithmetic, no recursion
// and no per-level scratch copies — each stage is a single pass between two
// ping-pong buffers. Radices 2, 3, 4 and 5 have specialised butterflies
// (radix-4 folds what would be two radix-2 levels into one pass); every odd
// prime from 7 up shares one kernel that folds the conjugate-symmetric input
// pairs once and then needs only real cos/sin tables. Its cost per point
// grows with the radix, so New compares the schedule's operation count with
// that of Bluestein's chirp-z algorithm — two transforms of the cheapest
// 7-smooth length m >= 2n-1 on this same engine — and takes whichever is
// lower: every allocation up to 110 PRB is direct, Bluestein remains for
// lengths whose largest prime factor is 127 or above. Plan.Bluestein
// reports which path a plan took.
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
// A Plan precomputes its stage tables and is safe for concurrent use by
// multiple goroutines as long as each call supplies its own destination
// slice. Per-call scratch comes from one of two sources: the ...In and
// ...Batch methods draw it from a caller-supplied per-worker
// workspace.Arena — the receiver hot path, zero-allocation in steady state
// — while the plain Forward/Inverse draw from per-plan sync.Pools, the
// fallback for callers without an arena.
//
// Scratch-safety audit: every sync.Pool here is a field of the Plan (or its
// bluestein) it serves, so pooled buffers are keyed by plan identity and
// two plans never exchange buffers, even for the same length (Get memoises
// one Plan per length; a Bluestein plan's inner Plan is private to it). All
// pooled buffers are full plan length; every stage pass overwrites its
// whole output buffer, so no stale contents can leak between interleaved
// transforms of different sizes on one goroutine. The odd-prime kernel's
// fold buffer is a stack array it fills before reading, per butterfly. The
// one buffer with a read-before-write region is Bluestein's padded chirp
// input x[n:m), which the engine explicitly zeroes on acquisition from a
// pool and between batch iterations, and which an Arena guarantees zeroed
// on handout; TestInterleavedLengths and TestBluesteinArenaZeroTail pin
// this on lengths that take Bluestein.
package fft

import (
	"fmt"
	"math"
	"sync"

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
// twiddles W_{r*m}^{j*p} are precomputed in tw, laid out per butterfly:
// tw[(r-1)*p + j-1] (j = 0 needs none; on the last pass, m = 1, they are
// all 1). The radix kernels below hard-code the W_r^{j*c} sub-DFT for
// r = 2, 3, 4, 5; odd primes from 7 up use stageOdd with the real cos/sin
// tables.
type stage struct {
	r  int          // radix
	m  int          // sub-sequence length after this pass
	s  int          // interleaved sequences entering this pass
	tw []complex128 // (r-1)*m twiddles, tw[(r-1)*p+j-1] = W_{r*m}^{j*p}
	// Odd-prime kernel only, h = r/2: cos[(j-1)*h+c-1] = cos(2*pi*j*c/r) and
	// sin likewise, for j, c in [1, h].
	cos, sin []float64
}

// Plan holds the precomputed state needed to transform vectors of a fixed
// length N. Create one with New and reuse it; construction is O(N log N)
// and transforms are O(N log N) with no allocation when an Arena (or the
// warm per-plan pool) supplies scratch.
type Plan struct {
	n       int
	stages  []stage    // direct path; empty when n == 1 or blu != nil
	blu     *bluestein // non-nil when the plan takes Bluestein
	ops     float64    // see Ops
	scratch sync.Pool  // *[]complex128 of length n (ping-pong buffer)
}

// New returns a transform plan for vectors of length n.
// It panics if n <= 0; a zero-length transform has no meaning here and
// indicates a bug in the caller's size computation.
func New(n int) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("fft: invalid transform length %d", n))
	}
	radices, m, ops := choosePath(n)
	p := &Plan{n: n, ops: ops}
	if m == 0 {
		p.stages = buildStages(n, radices)
	} else {
		p.blu = newBluestein(n, m)
	}
	p.scratch.New = func() any {
		s := make([]complex128, n)
		return &s
	}
	return p
}

// Len returns the transform length the plan was built for.
func (p *Plan) Len() int { return p.n }

// Bluestein reports whether the plan runs the chirp-z algorithm instead of
// direct radix stages — the choice New made by operation count.
func (p *Plan) Bluestein() bool { return p.blu != nil }

// choosePath decides how length n is transformed, for both element widths:
// direct with the returned radix schedule (m == 0), or Bluestein with
// convolution length m. ops is the winner's operation count. A 7-smooth n
// is always direct — Bluestein's inner plans end the recursion there — and
// any other n takes whichever count is lower.
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

// buildStages lays out the stage list for the schedule, with one twiddle
// table per pass and the cos/sin tables of each odd-prime pass.
func buildStages(n int, radices []int) []stage {
	stages := make([]stage, 0, len(radices))
	s, cur := 1, n
	for _, r := range radices {
		m := cur / r
		st := stage{r: r, m: m, s: s, tw: stageTwiddles(r, m)}
		if r > 5 {
			st.cos, st.sin = oddRadixTables(r)
		}
		stages = append(stages, st)
		cur = m
		s *= r
	}
	return stages
}

// stageTwiddles returns the (r-1)*m table tw[(r-1)*p+j-1] = W_{r*m}^{j*p}.
func stageTwiddles(r, m int) []complex128 {
	tw := make([]complex128, (r-1)*m)
	step := -2 * math.Pi / float64(r*m)
	for p := 0; p < m; p++ {
		for j := 1; j < r; j++ {
			theta := step * float64(j*p)
			tw[(r-1)*p+j-1] = complex(math.Cos(theta), math.Sin(theta))
		}
	}
	return tw
}

// oddRadixTables returns the h*h tables cos[(j-1)*h+c-1] = cos(2*pi*j*c/r)
// and sin likewise (h = r/2) for the odd-prime kernel; j*c is reduced
// mod r first so the argument stays small.
func oddRadixTables(r int) (cos, sin []float64) {
	h := r / 2
	cos = make([]float64, h*h)
	sin = make([]float64, h*h)
	for j := 1; j <= h; j++ {
		for c := 1; c <= h; c++ {
			theta := 2 * math.Pi * float64((j*c)%r) / float64(r)
			cos[(j-1)*h+c-1] = math.Cos(theta)
			sin[(j-1)*h+c-1] = math.Sin(theta)
		}
	}
	return cos, sin
}

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
	if p.blu != nil {
		p.blu.transform(ws, dst, src)
		return
	}
	k := len(p.stages)
	if k == 0 {
		dst[0] = src[0]
		return
	}
	aliased := &dst[0] == &src[0]
	if k == 1 && !aliased {
		// Single pass straight src -> dst: no scratch at all.
		runStage(&p.stages[0], dst, src)
		return
	}
	// Mark/Release bracket the whole call unconditionally (both are
	// nil-arena no-ops), keeping the scratch lifetime explicit even on the
	// pooled fallback path.
	mk := ws.Mark()
	var t1, t2 *[]complex128
	var scr, scr2 []complex128
	if ws != nil {
		scr = ws.Complex(p.n)
	} else {
		t1 = p.scratch.Get().(*[]complex128)
		scr = *t1
	}
	if aliased && k > 1 && k&1 == 1 {
		// Odd stage count writes dst first; an aliased src must survive
		// that pass, so it is copied aside. Even counts write scr first
		// and need no copy.
		if ws != nil {
			scr2 = ws.Complex(p.n)
		} else {
			t2 = p.scratch.Get().(*[]complex128)
			scr2 = *t2
		}
	}
	p.transformOne(dst, src, scr, scr2)
	ws.Release(mk)
	if ws == nil {
		p.scratch.Put(t1)
		if t2 != nil {
			p.scratch.Put(t2)
		}
	}
}

// transformOne runs the stage pipeline for one vector. scr must be a full
// plan-length buffer whenever the plan has more than one stage or dst
// aliases src; scr2 additionally when dst aliases src with an odd stage
// count above one. The pipeline ping-pongs between dst and scr with the
// parity arranged so the final pass lands in dst.
func (p *Plan) transformOne(dst, src, scr, scr2 []complex128) {
	k := len(p.stages)
	if &dst[0] == &src[0] {
		if k == 1 {
			copy(scr, src)
			src = scr
		} else if k&1 == 1 {
			copy(scr2, src)
			src = scr2
		}
	}
	cur := src
	for i := range p.stages {
		out := scr
		if (k-i)&1 == 1 {
			out = dst
		}
		runStage(&p.stages[i], out, cur)
		cur = out
	}
}

// Inverse computes the unnormalised-inverse DFT scaled by 1/N, i.e. the
// exact inverse of Forward. dst and src may be the same slice.
func (p *Plan) Inverse(dst, src []complex128) { p.InverseIn(nil, dst, src) }

// InverseIn is Inverse with per-call scratch drawn from ws. A nil ws falls
// back to the plan's pool. It computes the forward transform and applies
// the reversal identity IDFT(x)[k] = DFT(x)[(N-k) mod N] / N in place —
// one extra O(N) pass, against the two conjugation passes of the
// conjugate-trick inverse.
func (p *Plan) InverseIn(ws *workspace.Arena, dst, src []complex128) {
	p.ForwardIn(ws, dst, src)
	reverseScale(dst)
}

// reverseScale maps v[k] <- v[(n-k) mod n] / n in place.
func reverseScale(v []complex128) {
	n := len(v)
	s := 1 / float64(n)
	v[0] = complex(real(v[0])*s, imag(v[0])*s)
	for i, j := 1, n-1; i < j; i, j = i+1, j-1 {
		a, b := v[j], v[i]
		v[i] = complex(real(a)*s, imag(a)*s)
		v[j] = complex(real(b)*s, imag(b)*s)
	}
	if n > 1 && n&1 == 0 {
		m := n / 2
		v[m] = complex(real(v[m])*s, imag(v[m])*s)
	}
}

// ForwardBatch computes howMany forward DFTs in one call: transform i
// reads src[i*stride : i*stride+N] and writes dst[i*stride : i*stride+N].
// stride must be >= N. The whole batch shares one scratch acquisition and
// the plan's stage tables; per-vector results are bit-identical to
// howMany ForwardIn calls. dst and src must either be the same slice (with
// the same stride) or not overlap.
func (p *Plan) ForwardBatch(ws *workspace.Arena, dst, src []complex128, howMany, stride int) {
	p.ForwardBatchStrided(ws, dst, src, howMany, stride, stride)
}

// ForwardBatchStrided is ForwardBatch with distinct destination and source
// strides: transform i reads src[i*srcStride:][:N] and writes
// dst[i*dstStride:][:N] — the scatter/gather form grid-shaped callers use
// to land transforms directly in strided result layouts.
func (p *Plan) ForwardBatchStrided(ws *workspace.Arena, dst, src []complex128, howMany, dstStride, srcStride int) {
	if howMany <= 0 {
		return
	}
	p.checkBatch(len(dst), howMany, dstStride, "dst")
	p.checkBatch(len(src), howMany, srcStride, "src")
	if p.blu != nil {
		p.blu.transformBatch(ws, dst, src, howMany, dstStride, srcStride)
		return
	}
	k := len(p.stages)
	if k == 0 {
		for i := 0; i < howMany; i++ {
			dst[i*dstStride] = src[i*srcStride]
		}
		return
	}
	aliased := &dst[0] == &src[0]
	if k == 1 && !aliased {
		for i := 0; i < howMany; i++ {
			runStage(&p.stages[0], dst[i*dstStride:i*dstStride+p.n], src[i*srcStride:i*srcStride+p.n])
		}
		return
	}
	mk := ws.Mark() // nil-arena no-op, mirrors ForwardIn's unconditional bracket
	var t1, t2 *[]complex128
	var scr, scr2 []complex128
	if ws != nil {
		scr = ws.Complex(p.n)
	} else {
		t1 = p.scratch.Get().(*[]complex128)
		scr = *t1
	}
	if aliased && k > 1 && k&1 == 1 {
		if ws != nil {
			scr2 = ws.Complex(p.n)
		} else {
			t2 = p.scratch.Get().(*[]complex128)
			scr2 = *t2
		}
	}
	for i := 0; i < howMany; i++ {
		p.transformOne(dst[i*dstStride:i*dstStride+p.n], src[i*srcStride:i*srcStride+p.n], scr, scr2)
	}
	ws.Release(mk)
	if ws == nil {
		p.scratch.Put(t1)
		if t2 != nil {
			p.scratch.Put(t2)
		}
	}
}

// InverseBatch computes howMany inverse DFTs in one call, with the same
// layout contract as ForwardBatch.
func (p *Plan) InverseBatch(ws *workspace.Arena, dst, src []complex128, howMany, stride int) {
	p.InverseBatchStrided(ws, dst, src, howMany, stride, stride)
}

// InverseBatchStrided is InverseBatch with distinct destination and source
// strides.
func (p *Plan) InverseBatchStrided(ws *workspace.Arena, dst, src []complex128, howMany, dstStride, srcStride int) {
	p.ForwardBatchStrided(ws, dst, src, howMany, dstStride, srcStride)
	for i := 0; i < howMany; i++ {
		reverseScale(dst[i*dstStride : i*dstStride+p.n])
	}
}

// Ops estimates the number of scalar floating-point operations a single
// Forward transform performs: on the direct path the sum over the plan's
// stages of their butterfly counts times the per-butterfly kernel cost, on
// the Bluestein path the two inner transforms plus the scale, chirp and
// pointwise multiplies. It is the figure New compared to pick the path.
// The cycle-cost model (internal/cost) documents why its workload model is
// smoother than this estimate.
func (p *Plan) Ops() float64 { return p.ops }

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

func (p *Plan) checkLen(dst, src []complex128) {
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("fft: plan length %d, got dst %d src %d", p.n, len(dst), len(src)))
	}
}

func (p *Plan) checkBatch(have, howMany, stride int, which string) {
	if stride < p.n {
		panic(fmt.Sprintf("fft: batch %s stride %d below plan length %d", which, stride, p.n))
	}
	if need := (howMany-1)*stride + p.n; have < need {
		panic(fmt.Sprintf("fft: batch %s has %d elements, %d transforms at stride %d need %d",
			which, have, howMany, stride, need))
	}
}

// runStage dispatches one Stockham pass to its radix kernel. Every kernel
// writes each element of y exactly once, so y's prior contents never leak
// into the output.
func runStage(st *stage, y, x []complex128) {
	switch st.r {
	case 4:
		stage4(st, y, x)
	case 2:
		stage2(st, y, x)
	case 3:
		stage3(st, y, x)
	case 5:
		stage5(st, y, x)
	default:
		stageOdd(st, y, x)
	}
}

// stage2 is the radix-2 butterfly pass.
func stage2(st *stage, y, x []complex128) {
	m, s := st.m, st.s
	tw := st.tw
	if s == 1 {
		// First pass: contiguous data, no inner q loop.
		for p := 0; p < m; p++ {
			a, b := x[p], x[p+m]
			y[2*p] = a + b
			y[2*p+1] = (a - b) * tw[p]
		}
		return
	}
	for p := 0; p < m; p++ {
		w := tw[p]
		xa := x[s*p : s*p+s]
		xb := x[s*(p+m) : s*(p+m)+s]
		ya := y[2*s*p : 2*s*p+s]
		yb := y[s*(2*p+1) : s*(2*p+1)+s]
		if p == 0 {
			// w == 1: skip the twiddle multiply on the widest column.
			for q := 0; q < s; q++ {
				a, b := xa[q], xb[q]
				ya[q] = a + b
				yb[q] = a - b
			}
			continue
		}
		for q := 0; q < s; q++ {
			a, b := xa[q], xb[q]
			ya[q] = a + b
			yb[q] = (a - b) * w
		}
	}
}

// stage4 is the radix-4 butterfly pass — two folded radix-2 levels with a
// single set of twiddles and one trip through memory.
func stage4(st *stage, y, x []complex128) {
	m, s := st.m, st.s
	tw := st.tw
	if s == 1 {
		for p := 0; p < m; p++ {
			a0, a1, a2, a3 := x[p], x[p+m], x[p+2*m], x[p+3*m]
			t02p, t02m := a0+a2, a0-a2
			t13p, t13m := a1+a3, a1-a3
			jt := complex(imag(t13m), -real(t13m)) // -i * (a1 - a3)
			y[4*p] = t02p + t13p
			y[4*p+1] = (t02m + jt) * tw[3*p]
			y[4*p+2] = (t02p - t13p) * tw[3*p+1]
			y[4*p+3] = (t02m - jt) * tw[3*p+2]
		}
		return
	}
	for p := 0; p < m; p++ {
		w1, w2, w3 := tw[3*p], tw[3*p+1], tw[3*p+2]
		x0 := x[s*p : s*p+s]
		x1 := x[s*(p+m) : s*(p+m)+s]
		x2 := x[s*(p+2*m) : s*(p+2*m)+s]
		x3 := x[s*(p+3*m) : s*(p+3*m)+s]
		y0 := y[4*s*p : 4*s*p+s]
		y1 := y[s*(4*p+1) : s*(4*p+1)+s]
		y2 := y[s*(4*p+2) : s*(4*p+2)+s]
		y3 := y[s*(4*p+3) : s*(4*p+3)+s]
		if p == 0 {
			for q := 0; q < s; q++ {
				a0, a1, a2, a3 := x0[q], x1[q], x2[q], x3[q]
				t02p, t02m := a0+a2, a0-a2
				t13p, t13m := a1+a3, a1-a3
				jt := complex(imag(t13m), -real(t13m))
				y0[q] = t02p + t13p
				y1[q] = t02m + jt
				y2[q] = t02p - t13p
				y3[q] = t02m - jt
			}
			continue
		}
		for q := 0; q < s; q++ {
			a0, a1, a2, a3 := x0[q], x1[q], x2[q], x3[q]
			t02p, t02m := a0+a2, a0-a2
			t13p, t13m := a1+a3, a1-a3
			jt := complex(imag(t13m), -real(t13m))
			y0[q] = t02p + t13p
			y1[q] = (t02m + jt) * w1
			y2[q] = (t02p - t13p) * w2
			y3[q] = (t02m - jt) * w3
		}
	}
}

// sin3 = sin(2*pi/3): the imaginary part of the radix-3 root.
const sin3 = 0.8660254037844386467637231707529362

// stage3 is the radix-3 butterfly pass.
func stage3(st *stage, y, x []complex128) {
	m, s := st.m, st.s
	tw := st.tw
	for p := 0; p < m; p++ {
		w1, w2 := tw[2*p], tw[2*p+1]
		x0 := x[s*p : s*p+s]
		x1 := x[s*(p+m) : s*(p+m)+s]
		x2 := x[s*(p+2*m) : s*(p+2*m)+s]
		y0 := y[3*s*p : 3*s*p+s]
		y1 := y[s*(3*p+1) : s*(3*p+1)+s]
		y2 := y[s*(3*p+2) : s*(3*p+2)+s]
		for q := 0; q < s; q++ {
			a0, a1, a2 := x0[q], x1[q], x2[q]
			u := a1 + a2
			v := a1 - a2
			c := a0 - complex(0.5*real(u), 0.5*imag(u))
			w := complex(sin3*imag(v), -sin3*real(v)) // -i*sin3*v
			y0[q] = a0 + u
			y1[q] = (c + w) * w1
			y2[q] = (c - w) * w2
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
// conjugate root pairs).
func stage5(st *stage, y, x []complex128) {
	m, s := st.m, st.s
	tw := st.tw
	for p := 0; p < m; p++ {
		w1, w2, w3, w4 := tw[4*p], tw[4*p+1], tw[4*p+2], tw[4*p+3]
		x0 := x[s*p : s*p+s]
		x1 := x[s*(p+m) : s*(p+m)+s]
		x2 := x[s*(p+2*m) : s*(p+2*m)+s]
		x3 := x[s*(p+3*m) : s*(p+3*m)+s]
		x4 := x[s*(p+4*m) : s*(p+4*m)+s]
		y0 := y[5*s*p : 5*s*p+s]
		y1 := y[s*(5*p+1) : s*(5*p+1)+s]
		y2 := y[s*(5*p+2) : s*(5*p+2)+s]
		y3 := y[s*(5*p+3) : s*(5*p+3)+s]
		y4 := y[s*(5*p+4) : s*(5*p+4)+s]
		for q := 0; q < s; q++ {
			a0, a1, a2, a3, a4 := x0[q], x1[q], x2[q], x3[q], x4[q]
			t1, t2 := a1+a4, a2+a3
			t3, t4 := a1-a4, a2-a3
			m1 := a0 + complex(cos51*real(t1)+cos52*real(t2), cos51*imag(t1)+cos52*imag(t2))
			m2 := a0 + complex(cos52*real(t1)+cos51*real(t2), cos52*imag(t1)+cos51*imag(t2))
			u1 := complex(sin51*real(t3)+sin52*real(t4), sin51*imag(t3)+sin52*imag(t4))
			u2 := complex(sin52*real(t3)-sin51*real(t4), sin52*imag(t3)-sin51*imag(t4))
			m3 := complex(imag(u1), -real(u1)) // -i*u1
			m4 := complex(imag(u2), -real(u2)) // -i*u2
			y0[q] = a0 + t1 + t2
			y1[q] = (m1 + m3) * w1
			y2[q] = (m2 + m4) * w2
			y3[q] = (m2 - m4) * w3
			y4[q] = (m1 - m3) * w4
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
func stageOdd(st *stage, y, x []complex128) {
	r, m, s := st.r, st.m, st.s
	h := r / 2
	var fold [4 * (maxOddRadix / 2)]float64
	ur, ui := fold[:h], fold[h:2*h]
	vr, vi := fold[2*h:3*h], fold[3*h:4*h]
	sm := s * m
	for p := 0; p < m; p++ {
		tw := st.tw[(r-1)*p : (r-1)*(p+1)]
		for q := 0; q < s; q++ {
			in := s*p + q
			a0 := x[in]
			a0r, a0i := real(a0), imag(a0)
			dr, di := a0r, a0i
			for c := 0; c < h; c++ {
				a, b := x[in+sm*(c+1)], x[in+sm*(r-1-c)]
				pr, pi := real(a)+real(b), imag(a)+imag(b)
				ur[c], ui[c] = pr, pi
				vr[c], vi[c] = real(a)-real(b), imag(a)-imag(b)
				dr += pr
				di += pi
			}
			out := s*r*p + q
			y[out] = complex(dr, di)
			for j := 0; j < h; j++ {
				cj := st.cos[j*h : j*h+h]
				sj := st.sin[j*h : j*h+h]
				ar, ai := a0r, a0i
				var br, bi float64
				for c, cv := range cj {
					sv := sj[c]
					ar += cv * ur[c]
					ai += cv * ui[c]
					br += sv * vr[c]
					bi += sv * vi[c]
				}
				lo := complex(ar+bi, ai-br) // A - i*B
				hi := complex(ar-bi, ai+br) // A + i*B
				if m > 1 {
					lo *= tw[j]
					hi *= tw[r-2-j]
				}
				y[out+s*(j+1)] = lo
				y[out+s*(r-1-j)] = hi
			}
		}
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

func cmplxConj(v complex128) complex128 { return complex(real(v), -imag(v)) }

// bluestein implements the chirp-z transform: an arbitrary-length DFT
// expressed as a cyclic convolution, evaluated with 7-smooth FFTs on the
// iterative engine.
type bluestein struct {
	n     int
	m     int          // 7-smooth convolution length, m >= 2n-1 (bluesteinPlan)
	inner *Plan        // direct plan of length m
	a     []complex128 // chirp: exp(-pi*i*k^2/n)
	bfft  []complex128 // FFT of the chirp-conjugate kernel, length m
	pool  sync.Pool    // *[]complex128 of length m
}

func newBluestein(n, m int) *bluestein {
	b := &bluestein{n: n, m: m, inner: New(m)}
	b.a = make([]complex128, n)
	kernel := make([]complex128, m)
	for k := 0; k < n; k++ {
		// k*k mod 2n keeps the argument small so cos/sin stay accurate
		// for large k.
		q := (k * k) % (2 * n)
		theta := -math.Pi * float64(q) / float64(n)
		b.a[k] = complex(math.Cos(theta), math.Sin(theta))
		conj := complex(math.Cos(theta), -math.Sin(theta))
		kernel[k] = conj
		if k > 0 {
			kernel[m-k] = conj
		}
	}
	b.bfft = make([]complex128, m)
	b.inner.Forward(b.bfft, kernel)
	b.pool.New = func() any {
		s := make([]complex128, m)
		return &s
	}
	return b
}

// core runs one chirp-z transform using caller-provided length-m buffers.
// x[n:m) MUST be zero on entry (the zero padding of the chirp-multiplied
// input); on exit x holds convolution output over its whole length, so a
// caller reusing x must re-zero that tail first.
func (b *bluestein) core(ws *workspace.Arena, dst, src, x, y []complex128) {
	for k := 0; k < b.n; k++ {
		x[k] = src[k] * b.a[k]
	}
	b.inner.ForwardIn(ws, y, x)
	for i := range y {
		y[i] *= b.bfft[i]
	}
	b.inner.InverseIn(ws, x, y)
	for k := 0; k < b.n; k++ {
		dst[k] = x[k] * b.a[k]
	}
}

// getBuffers acquires the two length-m convolution buffers. Arena slices
// arrive zeroed by the workspace contract (TestBluesteinArenaZeroTail pins
// the x[n:m) dependence); pooled x gets its tail zeroed explicitly — the
// head is fully overwritten by core — and y needs no zeroing at all.
//
// caller holds the returned mark and hands it back to putBuffers.
//
//ltephy:owns-scratch — acquire half of the getBuffers/putBuffers pair; the
func (b *bluestein) getBuffers(ws *workspace.Arena) (x, y []complex128, mk workspace.Mark, xp, yp *[]complex128) {
	if ws != nil {
		mk = ws.Mark()
		return ws.Complex(b.m), ws.Complex(b.m), mk, nil, nil
	}
	xp = b.pool.Get().(*[]complex128)
	yp = b.pool.Get().(*[]complex128)
	x, y = *xp, *yp
	clear(x[b.n:])
	return x, y, workspace.Mark{}, xp, yp
}

func (b *bluestein) putBuffers(ws *workspace.Arena, mk workspace.Mark, xp, yp *[]complex128) {
	if ws != nil {
		ws.Release(mk)
		return
	}
	b.pool.Put(xp)
	b.pool.Put(yp)
}

func (b *bluestein) transform(ws *workspace.Arena, dst, src []complex128) {
	x, y, mk, xp, yp := b.getBuffers(ws)
	b.core(ws, dst, src, x, y)
	b.putBuffers(ws, mk, xp, yp)
}

// transformBatch shares one buffer acquisition across the whole batch,
// re-zeroing only x's padding tail between transforms.
func (b *bluestein) transformBatch(ws *workspace.Arena, dst, src []complex128, howMany, dstStride, srcStride int) {
	x, y, mk, xp, yp := b.getBuffers(ws)
	for i := 0; i < howMany; i++ {
		if i > 0 {
			clear(x[b.n:])
		}
		b.core(ws, dst[i*dstStride:i*dstStride+b.n], src[i*srcStride:i*srcStride+b.n], x, y)
	}
	b.putBuffers(ws, mk, xp, yp)
}

// planKey identifies a cached plan by (size, precision), so the float32
// split-plane and complex128 plans for the same length coexist in one
// cache instead of evicting each other.
type planKey struct {
	n   int
	f32 bool
}

// planCache memoises plans by (size, precision); Get and GetF32 are the
// concurrency-safe accessors used across the receiver so repeated
// subframe sizes share twiddle tables. RWMutex-guarded (not a sync.Map)
// and struct-keyed so lookups don't box the key — both accessors sit on
// the per-task hot path and must not allocate. Values are *Plan or
// *PlanF32 per the key's precision; storing the pointer in the interface
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

// Get returns a shared complex128 plan for length n, creating it on
// first use.
func Get(n int) *Plan {
	k := planKey{n: n}
	if p := lookupPlan(k); p != nil {
		return p.(*Plan)
	}
	return storePlan(k, New(n)).(*Plan)
}

// GetF32 returns a shared float32 split-plane plan for length n,
// creating it on first use.
func GetF32(n int) *PlanF32 {
	k := planKey{n: n, f32: true}
	if p := lookupPlan(k); p != nil {
		return p.(*PlanF32)
	}
	return storePlan(k, NewF32(n)).(*PlanF32)
}
