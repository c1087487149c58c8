package turbo

import (
	"fmt"
	"math"

	"ltephy/internal/phy/workspace"
)

// Quantized sliding-window max-log-MAP decoder.
//
// This is the line-rate decode path: channel LLRs are quantized once per
// code block to int8 at the rate-match boundary (saturating, per-block
// full-scale qChanMax), extrinsics/apriori live in int8 with a 3/4
// extrinsic scale recovering most of the max-log loss, and all trellis
// arithmetic runs in int32 registers. The float64 max-log-MAP decoder in
// oracle_test.go is the accuracy oracle it is measured against.
//
// Each constituent BCJR pass is split into ceil(k/qWindow) independent
// windows. Window boundary metrics use NII (next-iteration
// initialization): the alpha metric a window computes at its right edge
// seeds the next window's forward pass on the *next* half-iteration of
// the same constituent decoder, and symmetrically for beta; on the first
// half-iteration interior boundaries are uniform (all-zero — max-log is
// invariant to per-column constants). Boundary columns are rescale-
// normalized (max subtracted) when stored, so boundary values stay in
// int16 range and path-metric drift never accumulates across iterations.
// A window's path metrics live in a slab on the stack of whoever runs it;
// windows share no mutable state except their private slices of the
// extrinsic output and the decision buffer, and their own boundary
// entries — so a Parallel hook can fan the windows of one large code
// block out across pool workers with bit-identical results for any worker
// count.
//
// The window kernel (qWindowKernel) has no data-dependent branch — the
// sign of a decoded bit and the winner of a metric comparison are coin
// flips — and is written for a register file that cannot hold the
// trellis: states s and s+4 share their two successors, so both
// recursions walk the four state pairs, each read from the slab and
// written back before the next is touched. quant_test.go keeps the kernel
// this one replaced as the oracle it is bit-identical to.
//
// Decoding stops per half-iteration: as soon as the CRC gate (opts.Check)
// passes, or hard decisions repeat across two consecutive half-iterations
// (extrinsic-stability fallback).

// Parallel runs fn(0..n-1), possibly concurrently, returning only when
// all calls have completed. The scheduler (internal/sched) provides one
// backed by its work-stealing pool so one code block's windows spread
// across workers.
type Parallel func(n int, fn func(i int))

// Fanout hands each half-iteration's windows to a Parallel hook without
// allocating: the window callback is built once, and reads the
// half-iteration's state stored here before each hand-off. It serves one
// decode at a time (build one per worker). A nil *Fanout decodes serially.
type Fanout struct {
	par    Parallel
	window func(int)
	dc     qConstituent
	cur    []uint8
	posMap []int32
}

// NewFanout wraps p for DecodeOpts.Par.
func NewFanout(p Parallel) *Fanout {
	f := &Fanout{par: p}
	f.window = f.run
	return f
}

func (f *Fanout) run(w int) { f.dc.window(w, f.cur, f.posMap) }

// DecodeOpts configures the quantized decode path.
type DecodeOpts struct {
	// Iterations caps full (two half-iteration) passes. Values of 4-8
	// are typical; <1 is treated as 1.
	Iterations int
	// Check, when non-nil, is the early-termination gate evaluated on
	// the hard decisions after every half-iteration. It is called with
	// decisions[CheckOffset:] — CheckOffset lets a transport-block CRC
	// skip filler bits without a capturing closure on the hot path. The
	// callback must not retain its argument.
	Check       func([]uint8) bool
	CheckOffset int
	// Par, when non-nil, runs the per-window trellis passes of each
	// half-iteration concurrently.
	Par *Fanout
}

const (
	// qChanMax is the channel LLR full-scale: the largest-magnitude LLR
	// of a code block maps to ±qChanMax (6 bits incl. sign, the
	// standard hardware choice — Kienle et al.).
	qChanMax = 31
	// qAprMax is the saturating apriori/extrinsic magnitude. Symmetric
	// (no -128) so negation never overflows.
	qAprMax = 127
	// qWindow is the sliding-window length in trellis steps.
	qWindow = 128
	// qParMinWindows is the smallest window count worth fanning out
	// across workers; blocks below it (k < 1024) run serially even when
	// a Parallel hook is installed.
	qParMinWindows = 8
	// negInfQ is "unreachable" in the int32 metric domain: small enough
	// that no reachable path loses to it, large enough that sums of two
	// metrics plus a branch never wrap.
	negInfQ = int32(-1) << 28
)

// DecodeQuant decodes with heap-allocated working state. See
// DecodeQuantIn.
func (c *Codec) DecodeQuant(llr []float64, opts DecodeOpts) ([]uint8, int) {
	return c.DecodeQuantIn(nil, llr, opts)
}

// DecodeQuantIn runs the quantized sliding-window decoder on channel LLRs
// laid out as Encode produces (positive LLR = bit 0), drawing all working
// state from ws (heap when nil). It returns the hard info bits and the
// number of half-iterations executed. The returned bit slice is
// arena-backed by contract: valid only until the caller releases the
// enclosing arena mark, which the caller holds (see DecodeOptsInto),
// so callers must copy it out first.
//
//ltephy:owns-scratch
func (c *Codec) DecodeQuantIn(ws *workspace.Arena, llr []float64, opts DecodeOpts) ([]uint8, int) {
	if len(llr) != CodedLen(c.k) {
		panic(fmt.Sprintf("turbo: DecodeQuant got %d LLRs, want %d", len(llr), CodedLen(c.k)))
	}
	halfIters := 2 * max(opts.Iterations, 1)
	d := newQDecoderState(ws, c.k)
	// Fan-out pays only when a block has enough windows to spread: below
	// the threshold the task push/steal traffic costs more than a worker
	// saves, so small blocks always decode serially (bit-identical either
	// way — the windows are independent regardless of who runs them).
	if d.nw < qParMinWindows {
		opts.Par = nil
	}
	d.load(c, llr)

	cur := ws.Bytes(c.k)
	prev := ws.Bytes(c.k)
	for h := 1; h <= halfIters; h++ {
		d.half(c, (h-1)%2, cur, opts.Par)
		if done, bits := qStop(cur, prev, h, opts); done {
			return bits, h
		}
		cur, prev = prev, cur
	}
	// The loop always swaps after the last half-iteration, so prev holds
	// the latest decisions.
	return prev, halfIters
}

// load quantizes one code block's channel LLRs into the two constituent
// decoders and pins the trellis boundaries that never change.
func (d *qdecoderState) load(c *Codec, llr []float64) {
	// Per-block saturating quantization at the decode boundary: the
	// block's peak LLR magnitude maps to full scale. A NaN never compares
	// greater, so it cannot become the peak.
	maxAbs := 0.0
	for _, v := range llr {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	scale := 1.0
	if maxAbs > 0 {
		scale = qChanMax / maxAbs
	}
	k, d1, d2 := d.k, &d.dec[0], &d.dec[1]
	quantizeLLR(d1.sys, llr[:k], scale)
	quantizeLLR(d1.par, llr[k:2*k], scale)
	quantizeLLR(d2.par, llr[2*k:3*k], scale)
	permute(d2.sys, d1.sys, c.il.perm)

	// Fixed trellis boundaries, identical in both double buffers: the
	// encoder starts in state 0, and termination pins beta at position k
	// exactly (computed once — tail steps carry no apriori, so the tail
	// beta never changes across iterations).
	for i := range d.dec {
		dc, tails := &d.dec[i], llr[3*k+6*i:]
		for s := 1; s < nStates; s++ {
			dc.aPrev[s], dc.aCur[s] = negInfQ, negInfQ
		}
		var tsys, tpar [3]int32
		for t := range tsys {
			tsys[t], tpar[t] = quantOne(tails[2*t], scale), quantOne(tails[2*t+1], scale)
		}
		bt := qTailBeta(tsys, tpar)
		copy(dc.bPrev[d.nw*nStates:], bt[:])
		copy(dc.bCur[d.nw*nStates:], bt[:])
	}
}

// half runs half-iteration i of a full iteration. Constituent 0 decodes in
// natural order with the deinterleaved extrinsic of constituent 1 as its
// apriori; constituent 1 decodes in interleaved order, and its decisions
// land in natural order through the permutation, so the CRC gate runs
// without a deinterleave pass.
// The fan-out gets a copy of the constituent, whose slices the windows
// write through, so the decoder state itself stays off the heap.
func (d *qdecoderState) half(c *Codec, i int, cur []uint8, f *Fanout) {
	dc, order, posMap := &d.dec[i], c.il.inv, []int32(nil)
	if i == 1 {
		order, posMap = c.il.perm, c.il.perm
	}
	permute(dc.apr, d.dec[1-i].ext, order)
	if f == nil {
		for w := 0; w < d.nw; w++ {
			dc.window(w, cur, posMap)
		}
	} else {
		f.dc, f.cur, f.posMap = *dc, cur, posMap
		f.par(d.nw, f.window)
	}
	dc.aPrev, dc.aCur = dc.aCur, dc.aPrev
	dc.bPrev, dc.bCur = dc.bCur, dc.bPrev
}

// qStop evaluates the per-half-iteration termination gates: the CRC check
// first, then decision stability across two consecutive half-iterations
// (which needs both constituent decoders to have contributed at least
// once, hence halfIters >= 2).
func qStop(cur, prev []uint8, halfIters int, opts DecodeOpts) (bool, []uint8) {
	if opts.Check != nil && opts.Check(cur[opts.CheckOffset:]) {
		return true, cur
	}
	if halfIters >= 2 {
		stable := true
		for i := range cur {
			if cur[i] != prev[i] {
				stable = false
				break
			}
		}
		if stable {
			return true, cur
		}
	}
	return false, nil
}

// window decodes window w of one constituent pass: positions
// [w*qWindow, min((w+1)*qWindow, k)). It reads only the previous
// half-iteration's boundary metrics (aPrev/bPrev) plus its own input
// slices, and writes its extrinsics, decisions, and its out-boundary
// entries in aCur/bCur — all disjoint across windows. posMap, when
// non-nil, maps trellis position to decision-buffer position (the QPP
// permutation, a bijection, for the second decoder): where a decision
// lands is all that differs between the two, and the kernel never sees it.
func (dc *qConstituent) window(w int, cur []uint8, posMap []int32) {
	lo := w * qWindow
	hi := min(lo+qWindow, len(dc.sys))
	aIn, aOut := dc.aPrev[w*nStates:(w+1)*nStates], dc.aCur[(w+1)*nStates:(w+2)*nStates]
	bIn, bOut := dc.bPrev[(w+1)*nStates:(w+2)*nStates], dc.bCur[w*nStates:(w+1)*nStates]
	var inOrder [qWindow]uint8
	dec := cur[lo:hi]
	if posMap != nil {
		dec = inOrder[:hi-lo]
	}
	qWindowKernel(dc.sys[lo:hi], dc.par[lo:hi], dc.apr[lo:hi], dc.ext[lo:hi], dec, aIn, aOut, bIn, bOut)
	if posMap != nil {
		for i, pos := range posMap[lo:hi] {
			cur[pos] = dec[i]
		}
	}
}

// qWindowKernel is the trellis arithmetic of one window over window-local
// slices, all of len(sys) <= qWindow steps.
//
// Both recursions are unrolled over the fixed 8-state trellis of g0=13,
// g1=15 (the tables in codec.go spelled out as constants): straight-line
// int32 arithmetic with no table loads, no bounds checks and no
// data-dependent branch — every max is a compare-select, the hard decision
// is the sign bit of the total LLR. Only two distinct branch metrics exist
// per step at 2x scale — p = ls+lp for (bit 0, parity 0) and q = ls-lp for
// (bit 0, parity 1) — with the bit-1 metrics their negations.
//
// States s and s+4 have the same two successors, 2s and 2s+1 (mod 8), so
// the trellis is four such pairs and a column is updated a pair at a time,
// through the slab: load two metrics, compare-select, store two. Eight
// metrics, their sixteen candidates and the inputs do not fit fourteen
// registers, and the compiler schedules every add it can before the first
// compare; a store between pairs is what keeps a pair's temporaries from
// outliving it. The backward pass goes one further: pair (s, s+4) consumes
// alpha[s], alpha[s+4] of column t and produces beta[s], beta[s+4] of the
// same column, so it overwrites the alpha column with the beta column in
// place and the next step reads its successors' betas from there.
func qWindowKernel(sys, par, apr, ext []int8, dec []uint8, aIn, aOut, bIn, bOut []int32) {
	// Column t is alpha before consuming symbol t, then beta at t. Always
	// written before it is read; on the stack so that concurrent windows
	// cannot share it.
	var slab [qWindow + 1][nStates]int32
	n := min(len(sys), qWindow)
	par, apr, ext, dec = par[:n], apr[:n], ext[:n], dec[:n]

	// Forward recursion from the previous-iteration in-boundary.
	copy(slab[0][:], aIn)
	for t := 0; t < n; t++ {
		col, nxt := &slab[t], &slab[t+1]
		ls := int32(sys[t]) + int32(apr[t])
		lp := int32(par[t])
		p, q := ls+lp, ls-lp
		x, y := col[0], col[4]
		nxt[0], nxt[1] = max(x+p, y-p), max(x-p, y+p)
		x, y = col[1], col[5]
		nxt[2], nxt[3] = max(x+q, y-q), max(x-q, y+q)
		x, y = col[2], col[6]
		nxt[4], nxt[5] = max(x-q, y+q), max(x+q, y-q)
		x, y = col[3], col[7]
		nxt[6], nxt[7] = max(x-p, y+p), max(x+p, y-p)
	}
	storeNorm8(aOut, &slab[n])

	// Backward recursion from the previous-iteration out-boundary, fused
	// with extrinsic extraction and hard decisions. For the pair's low
	// state, u/v are the bit-0/bit-1 branch totals beta[next]+gamma, x/y
	// those of its high state: the new betas are max(u, v) and max(x, y),
	// and joined with the pair's alphas a/b they feed the two path-metric
	// maxima b0/b1 whose difference is the total LLR.
	copy(slab[n][:], bIn)
	for t := n - 1; t >= 0; t-- {
		col, nxt := &slab[t], &slab[t+1]
		ls := int32(sys[t]) + int32(apr[t])
		lp := int32(par[t])
		p, q := ls+lp, ls-lp

		u, v, x, y := nxt[0]+p, nxt[1]-p, nxt[1]+p, nxt[0]-p
		a, b := col[0], col[4]
		b0, b1 := max(a+u, b+x), max(a+v, b+y)
		col[0], col[4] = max(u, v), max(x, y)
		u, v, x, y = nxt[2]+q, nxt[3]-q, nxt[3]+q, nxt[2]-q
		a, b = col[1], col[5]
		b0, b1 = max(b0, a+u, b+x), max(b1, a+v, b+y)
		col[1], col[5] = max(u, v), max(x, y)
		u, v, x, y = nxt[5]+q, nxt[4]-q, nxt[4]+q, nxt[5]-q
		a, b = col[2], col[6]
		b0, b1 = max(b0, a+u, b+x), max(b1, a+v, b+y)
		col[2], col[6] = max(u, v), max(x, y)
		u, v, x, y = nxt[7]+p, nxt[6]-p, nxt[6]+p, nxt[7]-p
		a, b = col[3], col[7]
		b0, b1 = max(b0, a+u, b+x), max(b1, a+v, b+y)
		col[3], col[7] = max(u, v), max(x, y)

		// b0-b1 is the total LLR at 2x scale (it contains sys+apr+ext);
		// subtracting 2*(sys+apr) leaves twice the extrinsic, and (3*e)>>3
		// applies the 3/4 extrinsic scale while returning to 1x, saturated
		// into int8 for the next apriori.
		delta := b0 - b1
		dec[t] = uint8(uint32(delta) >> 31)
		ext[t] = int8(min(max(3*(delta-2*ls)>>3, -qAprMax), qAprMax))
	}
	storeNorm8(bOut, &slab[0])
}

// storeNorm8 writes a boundary column rescale-normalized: the column
// maximum is subtracted so stored metrics are relative (<= 0) and bounded
// by state-merge depth times the branch-metric scale, independent of how
// far path metrics drifted inside the window.
func storeNorm8(dst []int32, m *[nStates]int32) {
	norm := max(m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7])
	dst = dst[:nStates]
	for s, v := range m {
		dst[s] = v - norm
	}
}

// qTailBeta computes the exact beta at position k by stepping backward
// through the three termination steps from the known terminal state 0.
func qTailBeta(tsys, tpar [3]int32) [nStates]int32 {
	b := [nStates]int32{negInfQ, negInfQ, negInfQ, negInfQ, negInfQ, negInfQ, negInfQ, negInfQ}
	b[0] = 0
	for t := 2; t >= 0; t-- {
		ls, lp := tsys[t], tpar[t]
		g00, g01 := ls+lp, ls-lp
		g10, g11 := -ls+lp, -ls-lp
		var nb [nStates]int32
		for s := 0; s < nStates; s++ {
			g0 := g00
			if parityOut[s][0] != 0 {
				g0 = g01
			}
			g1 := g10
			if parityOut[s][1] != 0 {
				g1 = g11
			}
			b0 := b[nextState[s][0]] + g0
			b1 := b[nextState[s][1]] + g1
			if b0 > b1 {
				nb[s] = b0
			} else {
				nb[s] = b1
			}
		}
		b = nb
	}
	return b
}

// quantizeLLR rounds llr*scale to nearest into int8, saturating at
// ±qAprMax; a NaN becomes 0, an erasure.
func quantizeLLR(dst []int8, llr []float64, scale float64) {
	dst = dst[:len(llr)]
	for i, v := range llr {
		dst[i] = int8(quantOne(v, scale))
	}
}

// quantOne rounds half away from zero by adding a half that carries q's
// sign — the sign of an LLR is a coin flip, so a branch on it mispredicts
// every other soft bit.
func quantOne(v, scale float64) int32 {
	q := v * scale
	if math.Abs(q) < qAprMax {
		return int32(q + math.Copysign(0.5, q))
	}
	// Saturated or NaN. Decided here, in float: converting either to
	// int32 is platform-defined in Go (MinInt32 on amd64, so +Inf came out
	// negative; 0 on arm64), and a hostile subframe must decode the same
	// everywhere.
	switch {
	case q > 0:
		return qAprMax
	case q < 0:
		return -qAprMax
	}
	return 0
}

// qConstituent is one constituent decoder's working set. Boundary-metric
// arrays are double-buffered (prev is read, cur is written, swapped after
// each half-iteration), with nw+1 boundary columns: index w is the metric
// at trellis position w*qWindow (the last clamped to k).
type qConstituent struct {
	sys, par, apr, ext       []int8  // channel LLRs in trellis order, apriori in, extrinsic out
	aPrev, aCur, bPrev, bCur []int32 // (nw+1) * nStates each
}

// qdecoderState holds the per-call working buffers for DecodeQuantIn.
type qdecoderState struct {
	k, nw int
	dec   [2]qConstituent
}

// newQDecoderState carves the working buffers from ws (heap when nil).
// All buffers come back zeroed — required: the second decoder's ext is
// read (as the initial apriori) before the first half-iteration writes it,
// and zeroed interior boundary columns are exactly the uniform
// first-iteration NII init. It is a carve constructor: DecodeQuantIn's
// caller holds the mark bounding the state's lifetime.
//
//ltephy:owns-scratch
func newQDecoderState(ws *workspace.Arena, k int) qdecoderState {
	nw := (k + qWindow - 1) / qWindow
	d := qdecoderState{k: k, nw: nw}
	for i := range d.dec {
		d.dec[i] = qConstituent{
			sys: ws.Int8(k), par: ws.Int8(k), apr: ws.Int8(k), ext: ws.Int8(k),
			aPrev: ws.Int32((nw + 1) * nStates), aCur: ws.Int32((nw + 1) * nStates),
			bPrev: ws.Int32((nw + 1) * nStates), bCur: ws.Int32((nw + 1) * nStates),
		}
	}
	return d
}
