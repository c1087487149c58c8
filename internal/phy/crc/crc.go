// Package crc implements the cyclic redundancy checks defined in 3GPP
// TS 36.212 §5.1.1 for LTE transport channels:
//
//	CRC24A  g(D) = D^24+D^23+D^18+D^17+D^14+D^11+D^10+D^7+D^6+D^5+D^4+D^3+D+1
//	CRC24B  g(D) = D^24+D^23+D^6+D^5+D+1
//	CRC16   g(D) = D^16+D^12+D^5+1
//	CRC8    g(D) = D^8+D^7+D^4+D^3+D+1
//
// CRC24A protects the transport block, CRC24B each code block after
// segmentation. The uplink receiver pipeline's final stage is a CRC check
// over the decoded payload (the paper's Fig. 3 "CRC" kernel).
//
// The message here is a sequence of bits (one bit per byte, values 0 or 1),
// matching how the turbo coder and demapper exchange data, and is divided
// eight bits per table step; a byte-oriented variant over the same tables
// is provided for packed payloads.
package crc

import "encoding/binary"

// Kind selects one of the four LTE CRC polynomials.
type Kind int

// Supported CRC kinds, in the order TS 36.212 defines them.
const (
	CRC24A Kind = iota
	CRC24B
	CRC16
	CRC8
)

// params describes one generator polynomial: its length in bits and its
// coefficients below the leading term.
type params struct {
	bits int
	poly uint32
	name string
}

var table = [...]params{
	CRC24A: {24, 0x864CFB, "CRC24A"},
	CRC24B: {24, 0x800063, "CRC24B"},
	CRC16:  {16, 0x1021, "CRC16"},
	CRC8:   {8, 0x9B, "CRC8"},
}

// Bits returns the length of the checksum produced by k.
func (k Kind) Bits() int { return table[k].bits }

// String returns the 3GPP name of the polynomial.
func (k Kind) String() string { return table[k].name }

// ComputeBits returns the CRC of a message given as individual bits
// (values 0 or 1, most significant bit first), as the checksum bits
// p(0)..p(L-1) in transmission order (MSB first). Only bit 0 of each
// element is read.
func (k Kind) ComputeBits(msg []uint8) []uint8 {
	reg := k.remainderBits(msg)
	out := make([]uint8, k.Bits())
	for i := range out {
		out[i] = uint8(reg>>(31-i)) & 1
	}
	return out
}

// AppendBits returns msg with its CRC appended, ready for encoding.
func (k Kind) AppendBits(msg []uint8) []uint8 {
	return append(append(make([]uint8, 0, len(msg)+k.Bits()), msg...), k.ComputeBits(msg)...)
}

// CheckBits reports whether data, interpreted as message||checksum,
// carries a consistent CRC: the LTE CRCs have a zero initial register and
// no final inversion, so that is exactly when the generator divides the
// whole codeword. It returns false for inputs shorter than the checksum
// itself. Only bit 0 of each element is read, checksum included, so a
// byte of 2 counts as 0. It performs no allocation — it runs once per
// decoded block, and once per CRC-gated turbo half-iteration, on the
// receiver hot path.
func (k Kind) CheckBits(data []uint8) bool {
	return len(data) >= k.Bits() && k.remainderBits(data) == 0
}

// byteTables[k][b] is the register after dividing byte b (MSB first) by
// the generator of k from a zero register. The register is kept
// left-aligned in 32 bits — its L bits on top, zeros below — so one step
// shape serves all four lengths without masking.
var byteTables = func() [len(table)][256]uint32 {
	var ts [len(table)][256]uint32
	for k, p := range table {
		poly := p.poly << (32 - p.bits)
		for b := range ts[k] {
			reg := uint32(b) << 24
			for i := 0; i < 8; i++ {
				reg = reg<<1 ^ poly&-(reg>>31)
			}
			ts[k][b] = reg
		}
	}
	return ts
}()

// remainderBits divides a message given one bit per byte (only the low bit
// of each is read) by the generator, eight bits per table step, and returns
// the left-aligned register.
func (k Kind) remainderBits(bits []uint8) uint32 {
	t := &byteTables[k]
	// Leading zeros do not move a zero register, so the odd bits at the
	// front are one zero-padded byte.
	head := len(bits) % 8
	var b uint8
	for _, v := range bits[:head] {
		b = b<<1 | v&1
	}
	reg := t[b]
	for bits = bits[head:]; len(bits) >= 8; bits = bits[8:] {
		// The multiply gathers the eight low bits, first byte highest, into
		// the product's top byte: bit 8j moves to 63-j, and no two of the
		// partial products meet, so nothing carries.
		x := binary.LittleEndian.Uint64(bits) & 0x0101010101010101
		reg = reg<<8 ^ t[uint8(reg>>24)^uint8(x*0x8040201008040201>>56)]
	}
	return reg
}

// ComputeBytes returns the CRC register value for a packed byte message
// (bits taken MSB-first within each byte). The low Bits() bits hold the
// checksum; for CRC8/16 the upper bits are zero.
func (k Kind) ComputeBytes(msg []byte) uint32 {
	t := &byteTables[k]
	var reg uint32
	for _, b := range msg {
		reg = reg<<8 ^ t[uint8(reg>>24)^b]
	}
	return reg >> (32 - k.Bits())
}
