// Float32 split-plane transform path: the same iterative stage-planned
// Stockham engine as the complex128 Plan, operating on separate
// contiguous re/im float32 planes (the internal/phy/lane layout the
// receiver's float32 hot path runs on).
//
// A PlanF32 shares the complex128 engine's planning: NewF32 takes the
// same choosePath decision and buildStages layout (radix 4 first, then 2,
// 3, 5 and the odd primes ascending) and converts each stage's tables to
// split-plane float32 once at construction, so both element widths execute
// the identical butterfly schedule and differ only in arithmetic width and
// memory layout. Where the operation count favours it the plan is a
// float32 Bluestein chirp-z transform built on a 7-smooth PlanF32.
//
// Precision: a length-n float32 transform carries a relative error of
// roughly eps32 * sqrt(log2 n) (~1e-6 for LTE lengths); the accuracy
// sweep test pins the float32 path against the complex128 oracle over
// every nPRB in [2, 200]. The complex128 Plan remains the reference for
// bit-exact requirements.
package fft

import (
	"fmt"
	"math"
	"sync"

	"ltephy/internal/phy/workspace"
)

// stageF32 is one Stockham pass over split planes — the same (r, m, s)
// geometry as stage, with the twiddle and cos/sin tables narrowed to
// float32.
type stageF32 struct {
	r, m, s    int
	twRe, twIm []float32 // (r-1)*m twiddles, layout as stage.tw
	cos, sin   []float32 // odd-prime kernel only, layout as stage.cos/sin
}

// PlanF32 is the float32 split-plane counterpart of Plan. Create one
// with NewF32 (or the shared GetF32 cache) and reuse it; it is safe for
// concurrent use as long as each call supplies its own destination.
type PlanF32 struct {
	n       int
	stages  []stageF32
	blu     *bluesteinF32
	ops     float64
	scratch sync.Pool // *[]float32 of length 2n: re plane then im plane
}

// NewF32 returns a float32 split-plane plan for vectors of length n.
// It panics if n <= 0.
func NewF32(n int) *PlanF32 {
	if n <= 0 {
		panic("fft: invalid transform length")
	}
	radices, m, ops := choosePath(n)
	p := &PlanF32{n: n, ops: ops}
	if m == 0 {
		// Share the complex128 engine's stage planning: identical radix
		// schedule, tables narrowed once here.
		for _, st := range buildStages(n, radices) {
			p.stages = append(p.stages, narrowStage(st))
		}
	} else {
		p.blu = newBluesteinF32(n, m)
	}
	p.scratch.New = func() any {
		s := make([]float32, 2*n)
		return &s
	}
	return p
}

// narrowStage converts one complex128 stage's tables to split planes.
func narrowStage(st stage) stageF32 {
	f := stageF32{r: st.r, m: st.m, s: st.s}
	f.twRe, f.twIm = splitNarrow(st.tw)
	f.cos, f.sin = narrow(st.cos), narrow(st.sin)
	return f
}

// narrow converts a float64 table to float32.
func narrow(src []float64) []float32 {
	dst := make([]float32, len(src))
	for i, v := range src {
		dst[i] = float32(v)
	}
	return dst
}

// splitNarrow converts a complex128 table to split float32 planes.
func splitNarrow(src []complex128) (re, im []float32) {
	re = make([]float32, len(src))
	im = make([]float32, len(src))
	for i, v := range src {
		re[i] = float32(real(v))
		im[i] = float32(imag(v))
	}
	return re, im
}

// Len returns the transform length the plan was built for.
func (p *PlanF32) Len() int { return p.n }

// Bluestein reports whether the plan runs the chirp-z algorithm — the same
// answer as Plan.Bluestein for the length, since both take choosePath's.
func (p *PlanF32) Bluestein() bool { return p.blu != nil }

// Ops estimates the scalar flop count of one forward transform — the
// same figure as Plan.Ops, since both widths share the path and schedule.
func (p *PlanF32) Ops() float64 { return p.ops }

// Forward computes the forward DFT of the split-plane vector (srcRe,
// srcIm) into (dstRe, dstIm). All planes must have length N; dst may
// alias src plane-for-plane. Scratch comes from the plan's pool; hot
// paths with a per-worker arena should call ForwardIn.
func (p *PlanF32) Forward(dstRe, dstIm, srcRe, srcIm []float32) {
	p.ForwardIn(nil, dstRe, dstIm, srcRe, srcIm)
}

// ForwardIn is Forward with per-call scratch drawn from ws (zero heap
// allocation in steady state). A nil ws falls back to the plan's pool.
func (p *PlanF32) ForwardIn(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm []float32) {
	p.checkLenF32(dstRe, dstIm, srcRe, srcIm)
	if p.blu != nil {
		p.blu.transform(ws, dstRe, dstIm, srcRe, srcIm)
		return
	}
	k := len(p.stages)
	if k == 0 {
		dstRe[0], dstIm[0] = srcRe[0], srcIm[0]
		return
	}
	aliased := &dstRe[0] == &srcRe[0]
	if k == 1 && !aliased {
		runStageF32(&p.stages[0], dstRe, dstIm, srcRe, srcIm)
		return
	}
	mk := ws.Mark()
	scrRe, scrIm, scr2Re, scr2Im, t1, t2 := p.getScratch(ws, aliased && k > 1 && k&1 == 1)
	p.transformOneF32(dstRe, dstIm, srcRe, srcIm, scrRe, scrIm, scr2Re, scr2Im)
	ws.Release(mk)
	p.putScratch(ws, t1, t2)
}

// getScratch acquires the ping-pong planes (and, when needSecond, the
// aliased-source copy planes) from the arena or the plan's pool. It is
// the acquire half of the getScratch/putScratch pair; the caller
// brackets the arena lifetime with its own Mark/Release.
//
//ltephy:owns-scratch
func (p *PlanF32) getScratch(ws *workspace.Arena, needSecond bool) (scrRe, scrIm, scr2Re, scr2Im []float32, t1, t2 *[]float32) {
	if ws != nil {
		scrRe, scrIm = ws.Float32(p.n), ws.Float32(p.n)
		if needSecond {
			scr2Re, scr2Im = ws.Float32(p.n), ws.Float32(p.n)
		}
		return
	}
	t1 = p.scratch.Get().(*[]float32)
	scrRe, scrIm = (*t1)[:p.n], (*t1)[p.n:]
	if needSecond {
		t2 = p.scratch.Get().(*[]float32)
		scr2Re, scr2Im = (*t2)[:p.n], (*t2)[p.n:]
	}
	return
}

func (p *PlanF32) putScratch(ws *workspace.Arena, t1, t2 *[]float32) {
	if ws != nil {
		return // released by the caller's Mark/Release bracket
	}
	p.scratch.Put(t1)
	if t2 != nil {
		p.scratch.Put(t2)
	}
}

// transformOneF32 runs the stage pipeline for one split-plane vector,
// mirroring transformOne's ping-pong parity so the final pass lands in
// dst.
func (p *PlanF32) transformOneF32(dstRe, dstIm, srcRe, srcIm, scrRe, scrIm, scr2Re, scr2Im []float32) {
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
		runStageF32(&p.stages[i], outRe, outIm, curRe, curIm)
		curRe, curIm = outRe, outIm
	}
}

// Inverse computes the inverse DFT (scaled by 1/N), the exact inverse of
// Forward. dst may alias src plane-for-plane.
func (p *PlanF32) Inverse(dstRe, dstIm, srcRe, srcIm []float32) {
	p.InverseIn(nil, dstRe, dstIm, srcRe, srcIm)
}

// InverseIn is Inverse with per-call scratch drawn from ws: the forward
// transform followed by the in-place reversal identity
// IDFT(x)[k] = DFT(x)[(N-k) mod N] / N.
func (p *PlanF32) InverseIn(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm []float32) {
	p.ForwardIn(ws, dstRe, dstIm, srcRe, srcIm)
	reverseScaleF32(dstRe, dstIm)
}

// reverseScaleF32 maps v[k] <- v[(n-k) mod n] / n in place on both planes.
func reverseScaleF32(re, im []float32) {
	n := len(re)
	im = im[:n]
	s := float32(1) / float32(n)
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

// ForwardBatch computes howMany forward DFTs over split planes laid out
// at a fixed stride, with the same layout contract as Plan.ForwardBatch:
// transform i reads src planes [i*stride : i*stride+N] and writes the
// same window of the dst planes. Per-vector results are bit-identical to
// howMany ForwardIn calls.
func (p *PlanF32) ForwardBatch(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm []float32, howMany, stride int) {
	p.ForwardBatchStrided(ws, dstRe, dstIm, srcRe, srcIm, howMany, stride, stride)
}

// ForwardBatchStrided is ForwardBatch with distinct destination and
// source strides — the scatter/gather form the channel-estimation grid
// uses to land transforms directly in the strided hest slab.
func (p *PlanF32) ForwardBatchStrided(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm []float32, howMany, dstStride, srcStride int) {
	if howMany <= 0 {
		return
	}
	p.checkBatchF32(len(dstRe), len(dstIm), howMany, dstStride, "dst")
	p.checkBatchF32(len(srcRe), len(srcIm), howMany, srcStride, "src")
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
		for i := 0; i < howMany; i++ {
			d, s := i*dstStride, i*srcStride
			runStageF32(&p.stages[0], dstRe[d:d+p.n], dstIm[d:d+p.n], srcRe[s:s+p.n], srcIm[s:s+p.n])
		}
		return
	}
	mk := ws.Mark()
	scrRe, scrIm, scr2Re, scr2Im, t1, t2 := p.getScratch(ws, aliased && k > 1 && k&1 == 1)
	for i := 0; i < howMany; i++ {
		d, s := i*dstStride, i*srcStride
		p.transformOneF32(dstRe[d:d+p.n], dstIm[d:d+p.n], srcRe[s:s+p.n], srcIm[s:s+p.n],
			scrRe, scrIm, scr2Re, scr2Im)
	}
	ws.Release(mk)
	p.putScratch(ws, t1, t2)
}

// InverseBatch computes howMany inverse DFTs in one call, with the same
// layout contract as ForwardBatch.
func (p *PlanF32) InverseBatch(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm []float32, howMany, stride int) {
	p.InverseBatchStrided(ws, dstRe, dstIm, srcRe, srcIm, howMany, stride, stride)
}

// InverseBatchStrided is InverseBatch with distinct strides.
func (p *PlanF32) InverseBatchStrided(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm []float32, howMany, dstStride, srcStride int) {
	p.ForwardBatchStrided(ws, dstRe, dstIm, srcRe, srcIm, howMany, dstStride, srcStride)
	for i := 0; i < howMany; i++ {
		d := i * dstStride
		reverseScaleF32(dstRe[d:d+p.n], dstIm[d:d+p.n])
	}
}

func (p *PlanF32) checkLenF32(dstRe, dstIm, srcRe, srcIm []float32) {
	if len(dstRe) != p.n || len(dstIm) != p.n || len(srcRe) != p.n || len(srcIm) != p.n {
		panic("fft: f32 plane length mismatch")
	}
}

func (p *PlanF32) checkBatchF32(haveRe, haveIm, howMany, stride int, which string) {
	have := haveRe
	if haveIm < have {
		have = haveIm
	}
	if stride < p.n {
		panic(fmt.Sprintf("fft: f32 batch %s stride %d below plan length %d", which, stride, p.n))
	}
	if need := (howMany-1)*stride + p.n; have < need {
		panic(fmt.Sprintf("fft: f32 batch %s has %d plane elements, %d transforms at stride %d need %d",
			which, have, howMany, stride, need))
	}
}

// runStageF32 dispatches one split-plane Stockham pass to its radix
// kernel. Every kernel writes each output element exactly once.
func runStageF32(st *stageF32, yre, yim, xre, xim []float32) {
	switch st.r {
	case 4:
		stage4F32(st, yre, yim, xre, xim)
	case 2:
		stage2F32(st, yre, yim, xre, xim)
	case 3:
		stage3F32(st, yre, yim, xre, xim)
	case 5:
		stage5F32(st, yre, yim, xre, xim)
	default:
		stageOddF32(st, yre, yim, xre, xim)
	}
}

// stage2F32 is the radix-2 butterfly pass on split planes.
func stage2F32(st *stageF32, yre, yim, xre, xim []float32) {
	m, s := st.m, st.s
	twRe, twIm := st.twRe, st.twIm
	if s == 1 {
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

// stage4F32 is the radix-4 butterfly pass on split planes.
func stage4F32(st *stageF32, yre, yim, xre, xim []float32) {
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

// sin3f is sin(2*pi/3) narrowed once for the radix-3 kernel.
const sin3f = float32(sin3)

// stage3F32 is the radix-3 butterfly pass on split planes.
func stage3F32(st *stageF32, yre, yim, xre, xim []float32) {
	m, s := st.m, st.s
	twRe, twIm := st.twRe, st.twIm
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
			wr, wi := sin3f*vi, -sin3f*vr // -i*sin3*v
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

// Radix-5 constants narrowed once.
const (
	cos51f = float32(cos51)
	cos52f = float32(cos52)
	sin51f = float32(sin51)
	sin52f = float32(sin52)
)

// stage5F32 is the radix-5 butterfly pass on split planes.
func stage5F32(st *stageF32, yre, yim, xre, xim []float32) {
	m, s := st.m, st.s
	twRe, twIm := st.twRe, st.twIm
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
			m1r := a0r + cos51f*t1r + cos52f*t2r
			m1i := a0i + cos51f*t1i + cos52f*t2i
			m2r := a0r + cos52f*t1r + cos51f*t2r
			m2i := a0i + cos52f*t1i + cos51f*t2i
			u1r := sin51f*t3r + sin52f*t4r
			u1i := sin51f*t3i + sin52f*t4i
			u2r := sin52f*t3r - sin51f*t4r
			u2i := sin52f*t3i - sin51f*t4i
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

// stageOddF32 is the odd-prime pass on split planes: stageOdd's folded
// real-coefficient form, same tables narrowed to float32.
func stageOddF32(st *stageF32, yre, yim, xre, xim []float32) {
	r, m, s := st.r, st.m, st.s
	h := r / 2
	var fold [4 * (maxOddRadix / 2)]float32
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
				var br, bi float32
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

// bluesteinF32 is the float32 split-plane chirp-z transform, built on a
// 7-smooth PlanF32 of the length bluesteinPlan chose.
type bluesteinF32 struct {
	n        int
	m        int
	inner    *PlanF32
	aRe, aIm []float32 // chirp exp(-pi*i*k^2/n)
	bRe, bIm []float32 // FFT of the chirp-conjugate kernel
	pool     sync.Pool // *[]float32 of length 2m (one buffer's planes)
}

func newBluesteinF32(n, m int) *bluesteinF32 {
	b := &bluesteinF32{n: n, m: m, inner: NewF32(m)}
	b.aRe = make([]float32, n)
	b.aIm = make([]float32, n)
	kernelRe := make([]float32, m)
	kernelIm := make([]float32, m)
	for k := 0; k < n; k++ {
		q := (k * k) % (2 * n)
		theta := -math.Pi * float64(q) / float64(n)
		c, s := math.Cos(theta), math.Sin(theta)
		b.aRe[k], b.aIm[k] = float32(c), float32(s)
		kernelRe[k], kernelIm[k] = float32(c), float32(-s)
		if k > 0 {
			kernelRe[m-k], kernelIm[m-k] = float32(c), float32(-s)
		}
	}
	b.bRe = make([]float32, m)
	b.bIm = make([]float32, m)
	b.inner.Forward(b.bRe, b.bIm, kernelRe, kernelIm)
	b.pool.New = func() any {
		s := make([]float32, 2*m)
		return &s
	}
	return b
}

// core runs one chirp-z transform using caller-provided length-m plane
// pairs. x[n:m) must be zero on entry on both planes; on exit x holds
// convolution output over its whole length.
func (b *bluesteinF32) core(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm, xRe, xIm, yRe, yIm []float32) {
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
// planes arrive zeroed by the workspace contract; pooled x gets its tail
// zeroed explicitly.
//
// the caller holds the returned mark and hands it back to putBuffers.
//
//ltephy:owns-scratch — acquire half of the getBuffers/putBuffers pair;
func (b *bluesteinF32) getBuffers(ws *workspace.Arena) (xRe, xIm, yRe, yIm []float32, mk workspace.Mark, xp, yp *[]float32) {
	if ws != nil {
		mk = ws.Mark()
		return ws.Float32(b.m), ws.Float32(b.m), ws.Float32(b.m), ws.Float32(b.m), mk, nil, nil
	}
	xp = b.pool.Get().(*[]float32)
	yp = b.pool.Get().(*[]float32)
	xRe, xIm = (*xp)[:b.m], (*xp)[b.m:]
	yRe, yIm = (*yp)[:b.m], (*yp)[b.m:]
	clear(xRe[b.n:])
	clear(xIm[b.n:])
	return xRe, xIm, yRe, yIm, workspace.Mark{}, xp, yp
}

func (b *bluesteinF32) putBuffers(ws *workspace.Arena, mk workspace.Mark, xp, yp *[]float32) {
	if ws != nil {
		ws.Release(mk)
		return
	}
	b.pool.Put(xp)
	b.pool.Put(yp)
}

func (b *bluesteinF32) transform(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm []float32) {
	xRe, xIm, yRe, yIm, mk, xp, yp := b.getBuffers(ws)
	b.core(ws, dstRe, dstIm, srcRe, srcIm, xRe, xIm, yRe, yIm)
	b.putBuffers(ws, mk, xp, yp)
}

// transformBatch shares one buffer acquisition across the whole batch,
// re-zeroing only x's padding tail between transforms.
func (b *bluesteinF32) transformBatch(ws *workspace.Arena, dstRe, dstIm, srcRe, srcIm []float32, howMany, dstStride, srcStride int) {
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
