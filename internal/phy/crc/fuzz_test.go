package crc

import "testing"

// FuzzAppendCheck: any message round-trips; any single-bit corruption of
// the codeword is detected; the table-driven CheckBits agrees with the
// bit-serial reference on the codeword, its corruption, and the raw message
// bits taken as a would-be codeword (any length, not only multiples of 8:
// the checksum lengths and the trim below see to that).
func FuzzAppendCheck(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0))
	f.Add([]byte{0xFF, 0x00, 0xA5}, uint8(2), uint16(5))
	f.Fuzz(func(t *testing.T, raw []byte, kindRaw uint8, flipRaw uint16) {
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		k := Kind(int(kindRaw) % 4)
		bits := make([]uint8, 0, len(raw)*8)
		for _, b := range raw {
			for i := 7; i >= 0; i-- {
				bits = append(bits, (b>>uint(i))&1)
			}
		}
		bits = bits[:len(bits)-int(flipRaw>>13)%(len(bits)+1)]
		if k.CheckBits(bits) != checkBitsSerial(k, bits) {
			t.Fatalf("%v: CheckBits disagrees with the bit-serial reference on %d raw bits", k, len(bits))
		}
		coded := k.AppendBits(bits)
		if !k.CheckBits(coded) || !checkBitsSerial(k, coded) {
			t.Fatalf("%v: clean codeword rejected", k)
		}
		flip := int(flipRaw) % len(coded)
		coded[flip] ^= 1
		if k.CheckBits(coded) || checkBitsSerial(k, coded) {
			t.Fatalf("%v: single-bit flip at %d undetected", k, flip)
		}
	})
}
