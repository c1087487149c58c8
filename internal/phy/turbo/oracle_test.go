package turbo

import (
	"fmt"

	"ltephy/internal/phy/workspace"
)

// The float64 max-log-MAP decoder: the accuracy oracle the int8 product
// kernel (quant.go) is measured against — bit parity on the corpus, BLER
// loss in the sweep, agreement under fuzzing. Moved here verbatim from
// codec.go when the int8 kernel became the only decoder the receiver runs.

// oracleDecode returns the oracle's hard info bits after at most iterations
// full iterations, stopping early on stable decisions.
func (c *Codec) oracleDecode(llr []float64, iterations int) []uint8 {
	bits, _ := c.DecodeEarlyStopIn(nil, llr, iterations, nil)
	return bits
}

// oracleSegDecode is the segmented decode on the oracle: per-block CRC24B
// gating when C > 1, filler stripped, ok reporting the per-block CRCs.
func (s *Segmentation) oracleSegDecode(llr []float64, iterations int) (tb []uint8, ok bool) {
	ok = true
	per := CodedLen(s.K)
	for c := 0; c < s.C; c++ {
		var check func([]uint8) bool
		if s.PerCRC {
			check = crc24bCheck
		}
		block, _ := s.codec.DecodeEarlyStopIn(nil, llr[c*per:(c+1)*per], iterations, check)
		if s.PerCRC {
			if !crc24bCheck(block) {
				ok = false
			}
			block = block[:len(block)-blockCRCBits]
		}
		if c == 0 {
			block = block[s.Fill:]
		}
		tb = append(tb, block...)
	}
	return tb, ok
}

// DecodeEarlyStopIn runs iterative max-log-MAP decoding on channel LLRs
// laid out as Encode produces (positive LLR = bit 0) with hard-decision-
// aided early termination: after each full iteration the decisions are
// compared with the previous iteration's and, when check is non-nil,
// tested against it; decoding stops once they are stable or the check
// passes. It returns the info bits and the full iterations executed. All
// working state — trellis metrics, extrinsics, and the two alternating
// hard-decision buffers — is drawn from ws (heap-allocated when ws is
// nil). The returned bit slice is arena-backed by contract: it is valid
// only until the caller releases the arena mark enclosing this call, so
// callers must copy it out first. The check callback likewise must not
// retain its argument, which is overwritten on the next iteration.
//
//ltephy:owns-scratch
func (c *Codec) DecodeEarlyStopIn(ws *workspace.Arena, llr []float64, iterations int, check func([]uint8) bool) ([]uint8, int) {
	if len(llr) != CodedLen(c.k) {
		panic(fmt.Sprintf("turbo: Decode got %d LLRs, want %d", len(llr), CodedLen(c.k)))
	}
	if iterations < 1 {
		iterations = 1
	}
	k := c.k
	sys := llr[:k]
	p1 := llr[k : 2*k]
	p2 := llr[2*k : 3*k]
	tails := llr[3*k:]

	// Tail LLR views: encoder 1 pairs then encoder 2 pairs.
	t1sys := [3]float64{tails[0], tails[2], tails[4]}
	t1par := [3]float64{tails[1], tails[3], tails[5]}
	t2sys := [3]float64{tails[6], tails[8], tails[10]}
	t2par := [3]float64{tails[7], tails[9], tails[11]}

	d := newDecoderState(ws, k)
	// Interleaved systematic LLRs for the second constituent decoder.
	permute(d.sysIlv, sys, c.il.perm)

	// Two alternating hard-decision buffers instead of one fresh slice per
	// iteration: cur holds this iteration's decisions, prev the previous
	// iteration's for the stability test.
	cur := ws.Bytes(k)
	prev := ws.Bytes(k)
	havePrev := false
	ran := 0
	for it := 0; it < iterations; it++ {
		// Half-iteration 1: apriori = deinterleaved extrinsic from dec 2.
		permute(d.apr1, d.ext2, c.il.inv)
		maxLogMAP(&d, sys, p1, d.apr1, t1sys, t1par, d.ext1)
		// Half-iteration 2 on interleaved order.
		permute(d.apr2, d.ext1, c.il.perm)
		maxLogMAP(&d, d.sysIlv, p2, d.apr2, t2sys, t2par, d.ext2)
		ran = it + 1

		// Total LLR in natural order with the current extrinsics.
		permute(d.apr1, d.ext2, c.il.inv)
		for i := 0; i < k; i++ {
			if sys[i]+d.ext1[i]+d.apr1[i] < 0 {
				cur[i] = 1
			} else {
				cur[i] = 0
			}
		}
		if check != nil && check(cur) {
			return cur, ran
		}
		if havePrev {
			stable := true
			for i := range cur {
				if cur[i] != prev[i] {
					stable = false
					break
				}
			}
			if stable {
				return cur, ran
			}
		}
		cur, prev = prev, cur
		havePrev = true
	}
	// iterations >= 1, so prev holds the latest decisions after the swap.
	return prev, ran
}

// decoderState holds the per-call working buffers for DecodeEarlyStopIn.
type decoderState struct {
	k           int
	sysIlv      []float64
	apr1, apr2  []float64
	ext1, ext2  []float64
	alpha, beta []float64 // (k+4) * nStates
	gamma0      []float64 // branch metric for input bit 0, per step/state
	gamma1      []float64
}

// newDecoderState carves the working buffers from ws (heap when nil). All
// buffers come back zeroed either way — required: ext2 is read (as the
// initial apriori) before the first half-iteration writes it. It is a carve
// constructor: DecodeEarlyStopIn's caller holds the mark bounding the
// state's lifetime.
//
//ltephy:owns-scratch
func newDecoderState(ws *workspace.Arena, k int) decoderState {
	n := k + 4 // info steps + 3 tail steps + terminal column
	return decoderState{
		k:      k,
		sysIlv: ws.Float(k),
		apr1:   ws.Float(k),
		apr2:   ws.Float(k),
		ext1:   ws.Float(k),
		ext2:   ws.Float(k),
		alpha:  ws.Float(n * nStates),
		beta:   ws.Float(n * nStates),
		gamma0: ws.Float((k + 3) * nStates),
		gamma1: ws.Float((k + 3) * nStates),
	}
}

const negInf = -1e30

// maxLogMAP runs one constituent max-log BCJR pass.
// sys, par, apr have length k; tailSys/tailPar are the 3 termination steps.
// Extrinsic output (L(bit0)-style: positive means 0) is written to ext.
func maxLogMAP(d *decoderState, sys, par, apr []float64, tailSys, tailPar [3]float64, ext []float64) {
	k := d.k
	steps := k + 3

	// Branch metrics. Using the convention LLR = log(P0/P1), the metric
	// contribution of observing value b under LLR L is +L/2 for b=0 and
	// -L/2 for b=1 (up to a constant common to both hypotheses).
	for t := 0; t < steps; t++ {
		var ls, lp float64
		if t < k {
			ls = sys[t] + apr[t]
			lp = par[t]
		} else {
			ls = tailSys[t-k]
			lp = tailPar[t-k]
		}
		for s := 0; s < nStates; s++ {
			base := t*nStates + s
			z0 := parityOut[s][0]
			z1 := parityOut[s][1]
			m0 := ls / 2
			m1 := -ls / 2
			if z0 == 0 {
				m0 += lp / 2
			} else {
				m0 -= lp / 2
			}
			if z1 == 0 {
				m1 += lp / 2
			} else {
				m1 -= lp / 2
			}
			d.gamma0[base] = m0
			d.gamma1[base] = m1
		}
	}

	// Forward recursion. The encoder starts in state 0.
	for s := 0; s < nStates; s++ {
		d.alpha[s] = negInf
	}
	d.alpha[0] = 0
	for t := 0; t < steps; t++ {
		cur := d.alpha[t*nStates : (t+1)*nStates]
		nxt := d.alpha[(t+1)*nStates : (t+2)*nStates]
		for s := range nxt {
			nxt[s] = negInf
		}
		for s := 0; s < nStates; s++ {
			a := cur[s]
			if a <= negInf {
				continue
			}
			if v := a + d.gamma0[t*nStates+s]; v > nxt[nextState[s][0]] {
				nxt[nextState[s][0]] = v
			}
			if v := a + d.gamma1[t*nStates+s]; v > nxt[nextState[s][1]] {
				nxt[nextState[s][1]] = v
			}
		}
	}

	// Backward recursion. Termination drives the encoder to state 0.
	for s := 0; s < nStates; s++ {
		d.beta[steps*nStates+s] = negInf
	}
	d.beta[steps*nStates] = 0
	for t := steps - 1; t >= 0; t-- {
		cur := d.beta[t*nStates : (t+1)*nStates]
		nxt := d.beta[(t+1)*nStates : (t+2)*nStates]
		for s := 0; s < nStates; s++ {
			b0 := nxt[nextState[s][0]] + d.gamma0[t*nStates+s]
			b1 := nxt[nextState[s][1]] + d.gamma1[t*nStates+s]
			if b0 > b1 {
				cur[s] = b0
			} else {
				cur[s] = b1
			}
		}
	}

	// APP and extrinsic for the information steps.
	for t := 0; t < k; t++ {
		best0, best1 := negInf, negInf
		for s := 0; s < nStates; s++ {
			a := d.alpha[t*nStates+s]
			if v := a + d.gamma0[t*nStates+s] + d.beta[(t+1)*nStates+int(nextState[s][0])]; v > best0 {
				best0 = v
			}
			if v := a + d.gamma1[t*nStates+s] + d.beta[(t+1)*nStates+int(nextState[s][1])]; v > best1 {
				best1 = v
			}
		}
		total := best0 - best1
		ext[t] = total - sys[t] - apr[t]
	}
}
