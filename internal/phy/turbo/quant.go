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
// arithmetic runs in int32 registers. The float64 kernel in codec.go
// stays untouched as the accuracy oracle.
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
// Windows share no mutable state except their private slices of the
// alpha slab, the extrinsic output, the decision buffer, and their own
// boundary entries — so a Parallel hook can fan the windows of one large
// code block out across pool workers with bit-identical results for any
// worker count.
//
// Decoding stops per half-iteration: as soon as the CRC gate (opts.Check)
// passes, or hard decisions repeat across two consecutive half-iterations
// (extrinsic-stability fallback).

// Parallel runs fn(0..n-1), possibly concurrently, returning only when
// all calls have completed. A nil Parallel means serial execution. The
// scheduler (internal/sched) provides one backed by its work-stealing
// pool so one code block's windows spread across workers.
type Parallel func(n int, fn func(i int))

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
	Par Parallel
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
// arena-backed: valid only until the caller releases the enclosing arena
// mark, so callers must copy it out first.
//
// caller holds the mark (see segment.DecodeInto) and copies before Release.
//
//ltephy:owns-scratch — returns arena-backed decisions by contract; the
func (c *Codec) DecodeQuantIn(ws *workspace.Arena, llr []float64, opts DecodeOpts) ([]uint8, int) {
	if len(llr) != CodedLen(c.k) {
		panic(fmt.Sprintf("turbo: DecodeQuant got %d LLRs, want %d", len(llr), CodedLen(c.k)))
	}
	iterations := opts.Iterations
	if iterations < 1 {
		iterations = 1
	}
	k := c.k
	d := newQDecoderState(ws, k)
	// Fan-out pays only when a block has enough windows to spread: below
	// the threshold the task push/steal traffic costs more than a worker
	// saves, so small blocks always decode serially (bit-identical either
	// way — the windows are independent regardless of who runs them).
	if d.nw < qParMinWindows {
		opts.Par = nil
	}

	// Per-block saturating quantization at the decode boundary: the
	// block's peak LLR magnitude maps to full scale.
	maxAbs := 0.0
	for _, v := range llr {
		if v > maxAbs {
			maxAbs = v
		} else if -v > maxAbs {
			maxAbs = -v
		}
	}
	scale := 1.0
	if maxAbs > 0 {
		scale = qChanMax / maxAbs
	}
	quantizeLLR(d.qsys, llr[:k], scale)
	quantizeLLR(d.qp1, llr[k:2*k], scale)
	quantizeLLR(d.qp2, llr[2*k:3*k], scale)
	tails := llr[3*k:]
	for t := 0; t < 3; t++ {
		d.t1sys[t] = quantOne(tails[2*t], scale)
		d.t1par[t] = quantOne(tails[2*t+1], scale)
		d.t2sys[t] = quantOne(tails[6+2*t], scale)
		d.t2par[t] = quantOne(tails[6+2*t+1], scale)
	}
	permute(d.qsysIlv, d.qsys, c.il.perm)

	// Fixed trellis boundaries, identical in both double buffers: the
	// encoder starts in state 0, and termination pins beta at position k
	// exactly (computed once — tail steps carry no apriori, so the tail
	// beta never changes across iterations).
	for _, ab := range [][]int32{d.a1p, d.a1c, d.a2p, d.a2c} {
		for s := 1; s < nStates; s++ {
			ab[s] = negInfQ
		}
	}
	bt1 := qTailBeta(d.t1sys, d.t1par)
	bt2 := qTailBeta(d.t2sys, d.t2par)
	end := d.nw * nStates
	copy(d.b1p[end:], bt1[:])
	copy(d.b1c[end:], bt1[:])
	copy(d.b2p[end:], bt2[:])
	copy(d.b2c[end:], bt2[:])

	cur := ws.Bytes(k)
	prev := ws.Bytes(k)
	halfIters := 0
	for it := 0; it < iterations; it++ {
		// Half-iteration 1 (natural order): apriori = deinterleaved
		// extrinsic from decoder 2.
		permute(d.apr1, d.ext2, c.il.inv)
		qHalf(d.nw, k, d.alpha, d.qsys, d.qp1, d.apr1, d.ext1, d.a1p, d.a1c, d.b1p, d.b1c, cur, nil, opts.Par)
		d.a1p, d.a1c = d.a1c, d.a1p
		d.b1p, d.b1c = d.b1c, d.b1p
		halfIters++
		if done, bits := qStop(cur, prev, halfIters, opts); done {
			return bits, halfIters
		}
		cur, prev = prev, cur

		// Half-iteration 2 (interleaved order). Decisions land directly
		// in natural order via the permutation, so the CRC gate runs
		// without a deinterleave pass.
		permute(d.apr2, d.ext1, c.il.perm)
		qHalf(d.nw, k, d.alpha, d.qsysIlv, d.qp2, d.apr2, d.ext2, d.a2p, d.a2c, d.b2p, d.b2c, cur, c.il.perm, opts.Par)
		d.a2p, d.a2c = d.a2c, d.a2p
		d.b2p, d.b2c = d.b2c, d.b2p
		halfIters++
		if done, bits := qStop(cur, prev, halfIters, opts); done {
			return bits, halfIters
		}
		cur, prev = prev, cur
	}
	// The loop always swaps after the last half-iteration, so prev holds
	// the latest decisions.
	return prev, halfIters
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

// qHalf runs one constituent half-iteration: the window passes (forward
// recursion into the alpha slab, then a fused backward/extrinsic pass),
// serial or fanned out via p. posMap, when non-nil, maps trellis
// position to decision-buffer position (the QPP permutation for the
// second decoder); windows write disjoint decision positions either way
// because the permutation is a bijection. Deliberately a free function
// over plain slices: the fan-out closure then captures only values, so
// the serial path keeps the decoder state off the heap.
func qHalf(nw, k int, slab []int32, sys, par, apr, ext []int8, aPrev, aCur, bPrev, bCur []int32, cur []uint8, posMap []int32, p Parallel) {
	if p == nil {
		for w := 0; w < nw; w++ {
			qWindowPass(k, slab, w, sys, par, apr, ext, aPrev, aCur, bPrev, bCur, cur, posMap)
		}
		return
	}
	//ltephy:alloc-ok — one fan-out closure per half-iteration, only on
	// the explicitly-parallel path; the serial branch above is the
	// zero-alloc one.
	p(nw, func(w int) {
		qWindowPass(k, slab, w, sys, par, apr, ext, aPrev, aCur, bPrev, bCur, cur, posMap)
	})
}

// qWindowPass decodes window w of one constituent pass: positions
// [w*qWindow, min((w+1)*qWindow, k)). It reads only the previous
// half-iteration's boundary metrics (aPrev/bPrev) plus its own input
// slices, and writes its slab columns, extrinsics, decisions, and its
// out-boundary entries in aCur/bCur — all disjoint across windows.
//
// Both recursions are fully unrolled over the fixed 8-state trellis of
// g0=13, g1=15 (the tables in codec.go spelled out as constants), so the
// inner loops are straight-line int32 arithmetic with no table loads or
// bounds checks. Only two distinct branch metrics exist per step at 2x
// scale — p = ls+lp for (bit 0, parity 0) and q = ls-lp for (bit 0,
// parity 1) — with the bit-1 metrics their negations.
func qWindowPass(k int, slab []int32, w int, sys, par, apr, ext []int8, aPrev, aCur, bPrev, bCur []int32, cur []uint8, posMap []int32) {
	lo := w * qWindow
	hi := lo + qWindow
	if hi > k {
		hi = k
	}

	// Forward recursion from the previous-iteration in-boundary; column t
	// (alpha before consuming symbol t) is stored for the backward pass.
	ab := aPrev[w*nStates : (w+1)*nStates : (w+1)*nStates]
	a0, a1, a2, a3 := ab[0], ab[1], ab[2], ab[3]
	a4, a5, a6, a7 := ab[4], ab[5], ab[6], ab[7]
	for t := lo; t < hi; t++ {
		col := slab[t*nStates : t*nStates+nStates : t*nStates+nStates]
		col[0], col[1], col[2], col[3] = a0, a1, a2, a3
		col[4], col[5], col[6], col[7] = a4, a5, a6, a7
		ls := int32(sys[t]) + int32(apr[t])
		lp := int32(par[t])
		p, q := ls+lp, ls-lp
		a0, a1, a2, a3, a4, a5, a6, a7 =
			maxI32(a0+p, a4-p), maxI32(a0-p, a4+p),
			maxI32(a1+q, a5-q), maxI32(a1-q, a5+q),
			maxI32(a2-q, a6+q), maxI32(a2+q, a6-q),
			maxI32(a3-p, a7+p), maxI32(a3+p, a7-p)
	}
	storeNorm8(aCur[(w+1)*nStates:(w+2)*nStates], a0, a1, a2, a3, a4, a5, a6, a7)

	// Backward recursion from the previous-iteration out-boundary, fused
	// with extrinsic extraction and hard decisions. u_s/v_s are the
	// bit-0/bit-1 branch totals beta[next]+gamma for state s: nb[s] =
	// max(u_s, v_s), and joined with the stored alpha column they give
	// the two path-metric maxima whose difference is the total LLR.
	bb := bPrev[(w+1)*nStates : (w+2)*nStates : (w+2)*nStates]
	n0, n1, n2, n3 := bb[0], bb[1], bb[2], bb[3]
	n4, n5, n6, n7 := bb[4], bb[5], bb[6], bb[7]
	for t := hi - 1; t >= lo; t-- {
		col := slab[t*nStates : t*nStates+nStates : t*nStates+nStates]
		ls := int32(sys[t]) + int32(apr[t])
		lp := int32(par[t])
		p, q := ls+lp, ls-lp

		u0, v0 := n0+p, n1-p
		u1, v1 := n2+q, n3-q
		u2, v2 := n5+q, n4-q
		u3, v3 := n7+p, n6-p
		u4, v4 := n1+p, n0-p
		u5, v5 := n3+q, n2-q
		u6, v6 := n4+q, n5-q
		u7, v7 := n6+p, n7-p

		best0 := maxI32(maxI32(maxI32(col[0]+u0, col[1]+u1), maxI32(col[2]+u2, col[3]+u3)),
			maxI32(maxI32(col[4]+u4, col[5]+u5), maxI32(col[6]+u6, col[7]+u7)))
		best1 := maxI32(maxI32(maxI32(col[0]+v0, col[1]+v1), maxI32(col[2]+v2, col[3]+v3)),
			maxI32(maxI32(col[4]+v4, col[5]+v5), maxI32(col[6]+v6, col[7]+v7)))

		n0, n1, n2, n3 = maxI32(u0, v0), maxI32(u1, v1), maxI32(u2, v2), maxI32(u3, v3)
		n4, n5, n6, n7 = maxI32(u4, v4), maxI32(u5, v5), maxI32(u6, v6), maxI32(u7, v7)

		// best0-best1 is the total LLR at 2x scale (it contains
		// sys+apr+ext); subtracting 2*(sys+apr) leaves twice the
		// extrinsic, and (3*e)>>3 applies the 3/4 extrinsic scale while
		// returning to 1x, saturated into int8 for the next apriori.
		delta := best0 - best1
		pos := t
		if posMap != nil {
			pos = int(posMap[t])
		}
		if delta < 0 {
			cur[pos] = 1
		} else {
			cur[pos] = 0
		}
		e := delta - 2*ls
		ext[t] = sat8(3 * e >> 3)
	}
	storeNorm8(bCur[w*nStates:(w+1)*nStates], n0, n1, n2, n3, n4, n5, n6, n7)
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// storeNorm8 writes a boundary column rescale-normalized: the column
// maximum is subtracted so stored metrics are relative (<= 0) and bounded
// by state-merge depth times the branch-metric scale, independent of how
// far path metrics drifted inside the window.
func storeNorm8(dst []int32, m0, m1, m2, m3, m4, m5, m6, m7 int32) {
	norm := maxI32(maxI32(maxI32(m0, m1), maxI32(m2, m3)), maxI32(maxI32(m4, m5), maxI32(m6, m7)))
	dst = dst[:nStates:nStates]
	dst[0], dst[1], dst[2], dst[3] = m0-norm, m1-norm, m2-norm, m3-norm
	dst[4], dst[5], dst[6], dst[7] = m4-norm, m5-norm, m6-norm, m7-norm
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
	for i, v := range llr {
		dst[i] = int8(quantOne(v, scale))
	}
}

func quantOne(v, scale float64) int32 {
	q := v * scale
	if !(math.Abs(q) < qAprMax) {
		// Saturated or NaN. Decided here, in float: converting either to
		// int32 is platform-defined in Go (MinInt32 on amd64, so +Inf
		// came out negative; 0 on arm64), and a hostile subframe must
		// decode the same everywhere.
		switch {
		case q > 0:
			return qAprMax
		case q < 0:
			return -qAprMax
		}
		return 0
	}
	if q >= 0 {
		return int32(q + 0.5)
	}
	return int32(q - 0.5)
}

func sat8(v int32) int8 {
	if v > qAprMax {
		return qAprMax
	}
	if v < -qAprMax {
		return -qAprMax
	}
	return int8(v)
}

// qdecoderState holds the per-call working buffers for DecodeQuantIn.
// Boundary-metric arrays are double-buffered per constituent decoder
// (prev is read, cur is written, swapped after each half-iteration), with
// nw+1 boundary columns: index w is the metric at trellis position
// w*qWindow (the last clamped to k).
type qdecoderState struct {
	k, nw                   int
	qsys, qp1, qp2, qsysIlv []int8
	apr1, apr2, ext1, ext2  []int8
	alpha                   []int32 // k * nStates column slab, shared by both decoders
	a1p, a1c, b1p, b1c      []int32 // decoder 1 boundaries, (nw+1) * nStates each
	a2p, a2c, b2p, b2c      []int32
	t1sys, t1par            [3]int32
	t2sys, t2par            [3]int32
}

// newQDecoderState carves the working buffers from ws (heap when nil).
// All buffers come back zeroed — required: ext2 is read (as the initial
// apriori) before the first half-iteration writes it, and zeroed interior
// boundary columns are exactly the uniform first-iteration NII init.
//
// the mark bounding the state's lifetime.
//
//ltephy:owns-scratch — carve constructor; DecodeQuantIn's caller holds
func newQDecoderState(ws *workspace.Arena, k int) qdecoderState {
	nw := (k + qWindow - 1) / qWindow
	nb := (nw + 1) * nStates
	return qdecoderState{
		k:       k,
		nw:      nw,
		qsys:    ws.Int8(k),
		qp1:     ws.Int8(k),
		qp2:     ws.Int8(k),
		qsysIlv: ws.Int8(k),
		apr1:    ws.Int8(k),
		apr2:    ws.Int8(k),
		ext1:    ws.Int8(k),
		ext2:    ws.Int8(k),
		alpha:   ws.Int32(k * nStates),
		a1p:     ws.Int32(nb),
		a1c:     ws.Int32(nb),
		b1p:     ws.Int32(nb),
		b1c:     ws.Int32(nb),
		a2p:     ws.Int32(nb),
		a2c:     ws.Int32(nb),
		b2p:     ws.Int32(nb),
		b2c:     ws.Int32(nb),
	}
}
