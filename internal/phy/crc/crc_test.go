package crc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randBits(rng *rand.Rand, n int) []uint8 {
	b := make([]uint8, n)
	for i := range b {
		b[i] = uint8(rng.Intn(2))
	}
	return b
}

var kinds = []Kind{CRC24A, CRC24B, CRC16, CRC8}

// checkBitsSerial is the reference the table-driven CheckBits is held to:
// the shift register of TS 36.212 §5.1.1 clocked once per message bit, its
// final state compared with the trailing checksum bits.
func checkBitsSerial(k Kind, data []uint8) bool {
	p := table[k]
	n := len(data) - p.bits
	if n < 0 {
		return false
	}
	var reg uint32
	top := uint32(1) << (p.bits - 1)
	mask := (uint32(1) << p.bits) - 1
	for _, b := range data[:n] {
		fb := (reg&top != 0) != (b != 0)
		reg = (reg << 1) & mask
		if fb {
			reg ^= p.poly
		}
	}
	for i := 0; i < p.bits; i++ {
		if data[n+i] != uint8(reg>>(p.bits-1-i))&1 {
			return false
		}
	}
	return true
}

// agreeWithSerial checks CheckBits against the bit-serial reference on a
// codeword, on random bits of the same length, and on the codeword with the
// bit at flip inverted.
func agreeWithSerial(t *testing.T, k Kind, rng *rand.Rand, n, flip int) {
	t.Helper()
	coded := k.AppendBits(randBits(rng, n))
	if !k.CheckBits(coded) || !checkBitsSerial(k, coded) {
		t.Fatalf("%v: codeword of %d message bits rejected", k, n)
	}
	if junk := randBits(rng, len(coded)); k.CheckBits(junk) != checkBitsSerial(k, junk) {
		t.Fatalf("%v: CheckBits disagrees with the bit-serial reference on %d random bits", k, len(junk))
	}
	coded[flip] ^= 1
	if k.CheckBits(coded) || checkBitsSerial(k, coded) {
		t.Fatalf("%v: flip at %d of %d bits undetected", k, flip, len(coded))
	}
}

// TestCheckBitsMatchesBitSerial covers every polynomial at every message
// length 0..64 with every single-bit corruption, and random lengths up to
// the largest code block (multiples of 8 and not) with one random flip.
func TestCheckBitsMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, k := range kinds {
		for n := 0; n <= 64; n++ {
			for flip := 0; flip < n+k.Bits(); flip++ {
				agreeWithSerial(t, k, rng, n, flip)
			}
		}
		for trial := 0; trial < 200; trial++ {
			n := rng.Intn(6201)
			agreeWithSerial(t, k, rng, n, rng.Intn(n+k.Bits()))
		}
		for n := 0; n < k.Bits(); n++ {
			if short := make([]uint8, n); k.CheckBits(short) || checkBitsSerial(k, short) {
				t.Fatalf("%v: accepted %d bits, shorter than the checksum", k, n)
			}
		}
	}
}

func TestAppendThenCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range kinds {
		for _, n := range []int{0, 1, 7, 8, 40, 127, 1000} {
			msg := randBits(rng, n)
			coded := k.AppendBits(msg)
			if len(coded) != n+k.Bits() {
				t.Fatalf("%v: coded length %d, want %d", k, len(coded), n+k.Bits())
			}
			if !k.CheckBits(coded) {
				t.Errorf("%v: valid codeword of length %d failed check", k, n)
			}
		}
	}
}

func TestSingleBitErrorDetected(t *testing.T) {
	// Any single-bit error must be caught by any CRC polynomial.
	rng := rand.New(rand.NewSource(2))
	for _, k := range kinds {
		msg := randBits(rng, 64)
		coded := k.AppendBits(msg)
		for i := range coded {
			coded[i] ^= 1
			if k.CheckBits(coded) {
				t.Errorf("%v: single-bit error at %d undetected", k, i)
			}
			coded[i] ^= 1
		}
	}
}

func TestBurstErrorsDetected(t *testing.T) {
	// A CRC of degree r detects all burst errors of length <= r.
	rng := rand.New(rand.NewSource(3))
	for _, k := range kinds {
		msg := randBits(rng, 200)
		for trial := 0; trial < 50; trial++ {
			coded := k.AppendBits(msg)
			blen := 1 + rng.Intn(k.Bits())
			start := rng.Intn(len(coded) - blen)
			coded[start] ^= 1 // burst must start with an error
			if blen > 1 {
				coded[start+blen-1] ^= 1 // and end with one
			}
			for j := 1; j < blen-1; j++ {
				if rng.Intn(2) == 1 {
					coded[start+j] ^= 1
				}
			}
			if k.CheckBits(coded) {
				t.Errorf("%v: burst of length %d at %d undetected", k, blen, start)
			}
		}
	}
}

func TestCheckBitsTooShort(t *testing.T) {
	for _, k := range kinds {
		if k.CheckBits(make([]uint8, k.Bits()-1)) {
			t.Errorf("%v: accepted input shorter than checksum", k)
		}
	}
}

// Pins the input contract: only bit 0 of each element is read, so setting
// the upper bits changes neither the checksum nor the verdict.
func TestOnlyLowBitRead(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range kinds {
		msg := randBits(rng, 203)
		cw := k.AppendBits(msg)
		dirty := make([]uint8, len(cw))
		for i, b := range cw {
			dirty[i] = b | uint8(rng.Intn(128))<<1
		}
		if !k.CheckBits(dirty) {
			t.Errorf("%v: upper bits changed the CheckBits verdict", k)
		}
		if got, want := k.ComputeBits(dirty[:len(msg)]), cw[len(msg):]; !slices.Equal(got, want) {
			t.Errorf("%v: upper bits changed the checksum", k)
		}
	}
}

func TestZeroMessageNonTrivial(t *testing.T) {
	// An all-zero message has an all-zero CRC, but appending a one bit must
	// change it: guards against a degenerate (always zero) implementation.
	for _, k := range kinds {
		z := k.ComputeBits(make([]uint8, 100))
		for _, b := range z {
			if b != 0 {
				t.Errorf("%v: CRC of zero message not zero", k)
				break
			}
		}
		one := k.ComputeBits(append(make([]uint8, 100), 1))
		allZero := true
		for _, b := range one {
			if b != 0 {
				allZero = false
			}
		}
		if allZero {
			t.Errorf("%v: CRC ignores trailing one bit", k)
		}
	}
}

// TestKnownCRC16 pins the implementation to the public CCITT value:
// CRC16-CCITT (poly 0x1021, init 0) of ASCII "123456789" is 0x31C3.
func TestKnownCRC16(t *testing.T) {
	msg := []byte("123456789")
	if got := CRC16.ComputeBytes(msg); got != 0x31C3 {
		t.Errorf("CRC16(123456789) = %#x, want 0x31c3", got)
	}
	// Bit-level and byte-level paths must agree.
	var bits []uint8
	for _, b := range msg {
		for i := 7; i >= 0; i-- {
			bits = append(bits, (b>>uint(i))&1)
		}
	}
	bitCRC := CRC16.ComputeBits(bits)
	var reg uint32
	for _, b := range bitCRC {
		reg = reg<<1 | uint32(b)
	}
	if reg != 0x31C3 {
		t.Errorf("bit-level CRC16 = %#x, want 0x31c3", reg)
	}
}

func TestBitByteAgreement(t *testing.T) {
	f := func(data []byte) bool {
		for _, k := range kinds {
			var bits []uint8
			for _, b := range data {
				for i := 7; i >= 0; i-- {
					bits = append(bits, (b>>uint(i))&1)
				}
			}
			bitCRC := k.ComputeBits(bits)
			var reg uint32
			for _, b := range bitCRC {
				reg = reg<<1 | uint32(b)
			}
			if reg != k.ComputeBytes(data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLinearity exercises the CRC's defining algebraic property:
// crc(a xor b) == crc(a) xor crc(b) for equal-length messages.
func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, k := range kinds {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(300)
			a := randBits(rng, n)
			b := randBits(rng, n)
			x := make([]uint8, n)
			for i := range x {
				x[i] = a[i] ^ b[i]
			}
			ca, cb, cx := k.ComputeBits(a), k.ComputeBits(b), k.ComputeBits(x)
			for i := range cx {
				if cx[i] != ca[i]^cb[i] {
					t.Fatalf("%v: linearity violated (n=%d)", k, n)
				}
			}
		}
	}
}

func TestKindMetadata(t *testing.T) {
	want := map[Kind]struct {
		bits int
		name string
	}{
		CRC24A: {24, "CRC24A"}, CRC24B: {24, "CRC24B"},
		CRC16: {16, "CRC16"}, CRC8: {8, "CRC8"},
	}
	for k, w := range want {
		if k.Bits() != w.bits || k.String() != w.name {
			t.Errorf("%v: got (%d, %s), want (%d, %s)", k, k.Bits(), k.String(), w.bits, w.name)
		}
	}
}

func BenchmarkComputeBits24A(b *testing.B) {
	msg := randBits(rand.New(rand.NewSource(5)), 6144)
	b.SetBytes(int64(len(msg)) / 8)
	for i := 0; i < b.N; i++ {
		CRC24A.ComputeBits(msg)
	}
}

func BenchmarkCheckBits24A(b *testing.B) {
	block := CRC24A.AppendBits(randBits(rand.New(rand.NewSource(5)), 6144))
	ok := true
	for i := 0; i < b.N; i++ {
		ok = CRC24A.CheckBits(block) && ok
	}
	if !ok {
		b.Fatal("CRC24A rejected its own checksum")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(block)), "ns/bit")
}

func BenchmarkComputeBytes24A(b *testing.B) {
	msg := make([]byte, 768)
	rand.New(rand.NewSource(6)).Read(msg)
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		CRC24A.ComputeBytes(msg)
	}
}
