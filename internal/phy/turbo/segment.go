package turbo

import (
	"fmt"

	"ltephy/internal/phy/crc"
	"ltephy/internal/phy/workspace"
)

// Segmentation implements code block segmentation (TS 36.212 §5.1.2): a
// transport block larger than MaxBlock is split into C code blocks, each
// protected by CRC24B, padded with filler bits to a valid interleaver size.
// Deviation from the spec, documented in DESIGN.md: all blocks use one
// uniform size K (the spec mixes two adjacent sizes K+ and K-); filler
// bits are zero bits at the head of the first block in both designs.
type Segmentation struct {
	B      int // transport block bits in
	C      int // number of code blocks
	K      int // uniform interleaver size
	Fill   int // filler bits at the head of block 0
	PerCRC bool
	codec  *Codec
}

// blockCRC is the per-code-block checksum used when C > 1.
const blockCRCBits = 24

// crc24bCheck is the early-termination callback as a package-level func,
// so the per-block decode loop doesn't materialise a method value.
var crc24bCheck = func(bits []uint8) bool { return crc.CRC24B.CheckBits(bits) }

// NewSegmentation plans segmentation for a transport block of b bits
// (which should already include the transport-block CRC24A).
func NewSegmentation(b int) (*Segmentation, error) {
	if b < 1 {
		return nil, fmt.Errorf("turbo: empty transport block")
	}
	s := &Segmentation{B: b}
	if b <= MaxBlock {
		s.C = 1
		k, err := SmallestValidBlock(max(b, MinBlock))
		if err != nil {
			return nil, err
		}
		s.K = k
		s.Fill = k - b
	} else {
		s.PerCRC = true
		s.C = (b + MaxBlock - blockCRCBits - 1) / (MaxBlock - blockCRCBits)
		bPrime := b + s.C*blockCRCBits
		per := (bPrime + s.C - 1) / s.C
		k, err := SmallestValidBlock(per)
		if err != nil {
			return nil, err
		}
		s.K = k
		s.Fill = s.C*k - bPrime
	}
	var err error
	s.codec, err = NewCodec(s.K)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// CodedLen returns the total encoded length across all code blocks.
func (s *Segmentation) CodedLen() int { return s.C * CodedLen(s.K) }

// Encode turbo-encodes a transport block of exactly B bits and returns the
// concatenated codewords.
func (s *Segmentation) Encode(tb []uint8) []uint8 {
	if len(tb) != s.B {
		panic(fmt.Sprintf("turbo: transport block has %d bits, segmentation planned for %d", len(tb), s.B))
	}
	out := make([]uint8, 0, s.CodedLen())
	payloadPer := s.K - s.Fill // only block 0 carries filler; others carry K (minus CRC) bits
	_ = payloadPer
	pos := 0
	for c := 0; c < s.C; c++ {
		block := make([]uint8, 0, s.K)
		dataBits := s.K
		if s.PerCRC {
			dataBits -= blockCRCBits
		}
		if c == 0 {
			block = append(block, make([]uint8, s.Fill)...)
			dataBits -= s.Fill
		}
		block = append(block, tb[pos:pos+dataBits]...)
		pos += dataBits
		if s.PerCRC {
			block = crc.CRC24B.AppendBits(block)
		}
		out = append(out, s.codec.Encode(block)...)
	}
	return out
}

// blockE splits a total rate-matched length e across the C code blocks:
// the first e mod C blocks carry one extra bit. Both ends derive the same
// split.
func (s *Segmentation) blockE(e, c int) int {
	per := e / s.C
	if c < e%s.C {
		per++
	}
	return per
}

// EncodeRM turbo-encodes and rate-matches a transport block to exactly e
// output bits (TS 36.212 §5.1.4.1), using redundancy version rv.
func (s *Segmentation) EncodeRM(tb []uint8, e, rv int) ([]uint8, error) {
	if e < s.C {
		return nil, fmt.Errorf("turbo: cannot rate-match %d blocks into %d bits", s.C, e)
	}
	rm, err := NewRateMatcher(s.K)
	if err != nil {
		return nil, err
	}
	mother := s.Encode(tb)
	per := CodedLen(s.K)
	out := make([]uint8, 0, e)
	for c := 0; c < s.C; c++ {
		out = append(out, rm.Match(mother[c*per:(c+1)*per], s.blockE(e, c), rv)...)
	}
	return out, nil
}

// MotherLen is the length of the accumulated soft mother-codeword buffer
// across all code blocks.
func (s *Segmentation) MotherLen() int { return s.C * CodedLen(s.K) }

// AccumulateRM de-rate-matches one transmission's soft values into the
// mother buffer, adding to whatever previous transmissions contributed —
// HARQ incremental-redundancy combining.
func (s *Segmentation) AccumulateRM(mother, llr []float64, rv int) error {
	if len(mother) != s.MotherLen() {
		//ltephy:alloc-ok — validation failure aborts the transmission; never taken in steady state
		return fmt.Errorf("turbo: mother buffer has %d entries, want %d", len(mother), s.MotherLen())
	}
	rm, err := NewRateMatcher(s.K)
	if err != nil {
		return err
	}
	per := CodedLen(s.K)
	pos := 0
	for c := 0; c < s.C; c++ {
		eb := s.blockE(len(llr), c)
		rm.Accumulate(mother[c*per:(c+1)*per], llr[pos:pos+eb], rv)
		pos += eb
	}
	return nil
}

// SegDecodeOpts configures a segmented transport-block decode.
type SegDecodeOpts struct {
	// Iterations caps full decode iterations per code block.
	Iterations int
	// Par fans one code block's trellis windows out across workers
	// (nil = serial).
	Par *Fanout
	// TBCheck, when non-nil and C == 1, gates early termination on the
	// transport-block CRC: it is called per half-iteration with the
	// decoded transport block (filler stripped). Segments with C > 1
	// use the per-block CRC24B gate instead. Must be a
	// non-capturing func on allocation-free paths.
	TBCheck func([]uint8) bool
}

// DecodeRMOptsInto de-rate-matches e soft values (redundancy version rv)
// into a mother buffer drawn from ws and decodes it with DecodeOptsInto.
// The mother buffer must start zeroed because AccumulateRM adds into it —
// arena grabs are, like make, always zeroed.
func (s *Segmentation) DecodeRMOptsInto(dst []uint8, ws *workspace.Arena, llr []float64, rv int, opts SegDecodeOpts) (tb []uint8, ok bool, halfIters int, err error) {
	m := ws.Mark()
	mother := ws.Float(s.MotherLen())
	if err := s.AccumulateRM(mother, llr, rv); err != nil {
		ws.Release(m)
		return nil, false, 0, err
	}
	tb, ok, halfIters = s.DecodeOptsInto(dst, ws, mother, opts)
	ws.Release(m)
	return tb, ok, halfIters, nil
}

// DecodeOptsInto decodes concatenated codeword LLRs back into the
// transport block with the int8 sliding-window kernel, appending it to dst
// (which may be nil; a reused dst[:0] keeps the hot path allocation-free).
// The returned slice is dst's backing memory, never arena memory: decoded
// bits outlive the per-call scratch. Each code block's state is released
// before the next begins, so peak arena use is one block's trellis
// regardless of C. ok reports whether every per-block CRC24B verified
// (always true when C == 1, where no per-block CRC exists); halfIters is
// the realized half-iteration count summed across code blocks, which
// feeds the iteration-aware decode cost model.
func (s *Segmentation) DecodeOptsInto(dst []uint8, ws *workspace.Arena, llr []float64, opts SegDecodeOpts) (tb []uint8, ok bool, halfIters int) {
	if len(llr) != s.CodedLen() {
		panic(fmt.Sprintf("turbo: got %d LLRs, want %d", len(llr), s.CodedLen()))
	}
	ok = true
	if cap(dst) == 0 {
		dst = make([]uint8, 0, s.B) //ltephy:alloc-ok — payload outlives the arena by design; hot callers pass a preallocated dst
	}
	tb = dst
	per := CodedLen(s.K)
	for c := 0; c < s.C; c++ {
		m := ws.Mark()
		q := DecodeOpts{Iterations: opts.Iterations, Par: opts.Par}
		if s.PerCRC {
			q.Check = crc24bCheck
		} else if opts.TBCheck != nil {
			// C == 1: the transport block is the code block minus filler,
			// so the TB CRC gates decoding directly.
			q.Check = opts.TBCheck
			q.CheckOffset = s.Fill
		}
		block, ran := s.codec.DecodeQuantIn(ws, llr[c*per:(c+1)*per], q)
		halfIters += ran
		if s.PerCRC {
			if !crc.CRC24B.CheckBits(block) {
				ok = false
			}
			block = block[:len(block)-blockCRCBits]
		}
		if c == 0 {
			block = block[s.Fill:]
		}
		tb = append(tb, block...)
		ws.Release(m)
	}
	return tb, ok, halfIters
}
