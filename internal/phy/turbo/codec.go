package turbo

import "fmt"

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
// A Codec is immutable after construction and safe for concurrent use.
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
