package turbo

import (
	"fmt"

	"ltephy/internal/phy/workspace"
)

// nStates is the constituent RSC encoder state count: 8 states from the
// 3-bit shift register of g0 = 1+D^2+D^3 (octal 13), g1 = 1+D+D^3 (15).
const nStates = 8

// tailBits is the number of termination bits each codeword carries: both
// constituent encoders are driven to the zero state with three trellis
// steps each, producing (systematic, parity) pairs — 12 bits (36.212
// §5.1.3.2.2).
const tailBits = 12

// trellis tables: for state s (bits r0 r1 r2, r0 newest) and input bit b,
// the parity output and next state of the RSC encoder.
var (
	nextState [nStates][2]uint8
	parityOut [nStates][2]uint8
	// tailInput[s] is the input that forces the feedback to zero, stepping
	// the encoder toward state 0.
	tailInput [nStates]uint8
)

func init() {
	for s := 0; s < nStates; s++ {
		r0, r1, r2 := uint8(s)&1, uint8(s>>1)&1, uint8(s>>2)&1
		for b := uint8(0); b < 2; b++ {
			f := b ^ r1 ^ r2 // feedback: g0 taps D^2, D^3
			z := f ^ r0 ^ r2 // parity: g1 taps 1, D, D^3
			ns := (s<<1 | int(f)) & 7
			nextState[s][b] = uint8(ns)
			parityOut[s][b] = z
		}
		tailInput[s] = r1 ^ r2 // makes feedback zero, shifting in 0
	}
}

// CodedLen returns the codeword length for k info bits: systematic + two
// parity streams + termination.
func CodedLen(k int) int { return 3*k + tailBits }

// Codec encodes and decodes blocks of one fixed info size.
// A Codec is immutable after construction and safe for concurrent use;
// decoding allocates its working state per call.
type Codec struct {
	k  int
	il *interleaver
}

// NewCodec returns a codec for info blocks of k bits. k must be one of the
// TS 36.212 block sizes (use SmallestValidBlock to round up).
//
// rate-matcher cache miss, once per block size for the process lifetime.
//
//ltephy:coldpath — constructor/validation; decode paths reach it only on a
func NewCodec(k int) (*Codec, error) {
	if _, err := SmallestValidBlock(k); err != nil {
		return nil, err
	}
	valid := false
	for _, v := range ValidBlockSizes() {
		if v == k {
			valid = true
			break
		}
	}
	if !valid {
		return nil, fmt.Errorf("turbo: %d is not a valid interleaver size", k)
	}
	return &Codec{k: k, il: getInterleaver(k)}, nil
}

// K returns the info block size.
func (c *Codec) K() int { return c.k }

// rscEncode runs one constituent encoder over in, writing parity bits to
// par and returning the 3 (input, parity) tail pairs appended to tails.
func rscEncode(par []uint8, in []uint8, tails []uint8) []uint8 {
	var s uint8
	for i, b := range in {
		par[i] = parityOut[s][b]
		s = nextState[s][b]
	}
	for t := 0; t < 3; t++ {
		b := tailInput[s]
		tails = append(tails, b, parityOut[s][b])
		s = nextState[s][b]
	}
	return tails
}

// Encode produces the rate-1/3 codeword for info (length K, bit values
// 0/1): layout [systematic K | parity1 K | parity2 K | tails 12], where the
// tails are encoder 1's three (x, z) pairs followed by encoder 2's.
func (c *Codec) Encode(info []uint8) []uint8 {
	if len(info) != c.k {
		panic(fmt.Sprintf("turbo: Encode got %d bits, codec built for %d", len(info), c.k))
	}
	out := make([]uint8, CodedLen(c.k))
	sys := out[:c.k]
	p1 := out[c.k : 2*c.k]
	p2 := out[2*c.k : 3*c.k]
	copy(sys, info)
	tails := out[3*c.k : 3*c.k]
	tails = rscEncode(p1, info, tails)
	ilv := make([]uint8, c.k)
	permute(ilv, info, c.il.perm)
	rscEncode(p2, ilv, tails)
	return out
}

// Decode runs iterative max-log-MAP decoding on channel LLRs laid out as
// Encode produces (positive LLR = bit 0 more likely). It returns the hard
// info bits. iterations caps the number of full (two half-iteration)
// passes; decoding terminates early once hard decisions stabilise
// (see DecodeEarlyStop). Values of 4-8 are typical.
func (c *Codec) Decode(llr []float64, iterations int) []uint8 {
	bits, _ := c.DecodeEarlyStop(llr, iterations, nil)
	return bits
}

// DecodeEarlyStop decodes with hard-decision-aided early termination: after
// each full iteration the current hard decisions are compared with the
// previous iteration's, and — when a stop check is supplied (typically a
// CRC) — tested against it. Decoding stops as soon as decisions are stable
// or the check passes, which is how production decoders spend iterations
// only on the blocks that need them. It returns the info bits and the
// number of full iterations executed.
func (c *Codec) DecodeEarlyStop(llr []float64, iterations int, check func([]uint8) bool) ([]uint8, int) {
	return c.DecodeEarlyStopIn(nil, llr, iterations, check)
}

// DecodeEarlyStopIn is DecodeEarlyStop with all working state — trellis
// metrics, extrinsics, and the two alternating hard-decision buffers —
// drawn from ws (heap-allocated when ws is nil). The returned bit slice is
// arena-backed by contract: it is valid only until the caller releases the
// arena mark enclosing this call, which the caller holds (see
// segment.DecodeInto), so callers must copy it out first. The check
// callback likewise must not retain its argument, which is overwritten on
// the next iteration.
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

// decoderState holds the per-call working buffers for Decode.
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
