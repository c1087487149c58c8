package turbo

import (
	"slices"
	"testing"
)

// FuzzSegmentationRoundTrip drives arbitrary transport-block sizes and bit
// patterns through segmentation, encoding and noiseless decoding.
func FuzzSegmentationRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint64(0))
	f.Add(uint16(40), uint64(0xDEADBEEF))
	f.Add(uint16(6144), uint64(1))
	f.Add(uint16(7000), uint64(42))
	f.Fuzz(func(t *testing.T, szRaw uint16, pattern uint64) {
		b := int(szRaw)%12000 + 1
		s, err := NewSegmentation(b)
		if err != nil {
			t.Fatalf("B=%d: %v", b, err)
		}
		tb := make([]uint8, b)
		for i := range tb {
			tb[i] = uint8((pattern >> (uint(i) % 64)) & 1)
		}
		got, ok := segDecode(s, bitsToLLR(s.Encode(tb), 6), 2)
		if !ok && s.PerCRC {
			t.Fatalf("B=%d: clean decode failed per-block CRC", b)
		}
		if len(got) != b {
			t.Fatalf("B=%d: decoded %d bits", b, len(got))
		}
		for i := range tb {
			if got[i] != tb[i] {
				t.Fatalf("B=%d: bit %d corrupted", b, i)
			}
		}
	})
}

// FuzzTurboQuantized drives random LLR realisations and block lengths
// through the int8 sliding-window decoder against the float64 oracle.
// On clean inputs (every LLR has the transmitted sign and dominant
// magnitude) both kernels must recover the payload exactly; on noisy or
// saturation-spiked inputs the quantized decoder must still return
// well-formed output, stay within its iteration budget, agree bit for bit
// with the reference kernel, and decode bit-identically under window
// fan-out — the properties that hold for arbitrary garbage, where payload
// parity legitimately may not.
func FuzzTurboQuantized(f *testing.F) {
	f.Add(uint16(0), uint64(1), uint8(0), false)
	f.Add(uint16(3), uint64(7), uint8(20), false)
	f.Add(uint16(50), uint64(42), uint8(200), true)
	f.Add(uint16(187), uint64(0xDEADBEEF), uint8(255), false)
	f.Fuzz(func(t *testing.T, kSel uint16, seed uint64, mag uint8, spike bool) {
		ks := ValidBlockSizes()
		k := ks[int(kSel)%len(ks)]
		if k > 2048 {
			k = 2048 // bound per-exec cost; fan-out still reached (nw up to 16)
		}
		k, _ = SmallestValidBlock(k)
		c, err := NewCodec(k)
		if err != nil {
			t.Fatal(err)
		}
		// splitmix64: deterministic noise from the fuzz seed alone.
		state := seed
		next := func() uint64 {
			state += 0x9E3779B97F4A7C15
			z := state
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			return z ^ (z >> 31)
		}
		info := make([]uint8, k)
		for i := range info {
			info[i] = uint8(next() & 1)
		}
		coded := c.Encode(info)
		// Signed LLRs at magnitude 8 plus uniform noise of amplitude
		// mag/32 (0..~8): below amplitude 4 every LLR keeps its sign, so
		// even hard decision is error-free and decode success is certain.
		amp := float64(mag) / 32
		llr := make([]float64, len(coded))
		for i, b := range coded {
			s := 8.0
			if b == 1 {
				s = -8
			}
			u := float64(next()%4097)/2048 - 1 // [-1, 1]
			llr[i] = s + amp*u
		}
		if spike {
			// Saturation regime: one huge-magnitude sample compresses the
			// per-block quantization scale for everything else.
			llr[int(next()%uint64(len(llr)))] *= 50
		}
		const iters = 6
		opts := DecodeOpts{Iterations: iters}
		qb, qh := c.DecodeQuant(llr, opts)
		if len(qb) != k {
			t.Fatalf("K=%d: quant decoded %d bits", k, len(qb))
		}
		if qh < 1 || qh > 2*iters {
			t.Fatalf("K=%d: %d half-iterations outside [1, %d]", k, qh, 2*iters)
		}
		// The kernel is bit-identical to its reference on any input.
		if rb, rh := refDecodeQuant(c, llr, opts); rh != qh || !slices.Equal(rb, qb) {
			t.Fatalf("K=%d: kernel ran %d half-iterations, reference %d; bits equal: %v", k, qh, rh, slices.Equal(rb, qb))
		}
		// Window fan-out determinism: reverse execution order must be
		// bit-identical (including the realized half-iteration count).
		po := opts
		po.Par = reverseOrder()
		qb2, qh2 := c.DecodeQuant(llr, po)
		if qh2 != qh {
			t.Fatalf("K=%d: fan-out changed half-iterations %d -> %d", k, qh, qh2)
		}
		for i := range qb {
			if qb[i] != qb2[i] {
				t.Fatalf("K=%d: fan-out changed decision bit %d", k, i)
			}
		}
		if amp < 4 && !spike {
			// Clean regime: both kernels must agree with the transmitted
			// payload (and therefore with each other).
			fb := c.oracleDecode(llr, iters)
			for i := range info {
				if qb[i] != info[i] {
					t.Fatalf("K=%d amp=%.2f: quant bit %d wrong on clean input", k, amp, i)
				}
				if fb[i] != info[i] {
					t.Fatalf("K=%d amp=%.2f: oracle bit %d wrong on clean input", k, amp, i)
				}
			}
		}
	})
}

// FuzzRateMatchRoundTrip drives arbitrary (K, E, rv) combinations through
// rate matching and soft de-rate-matching.
func FuzzRateMatchRoundTrip(f *testing.F) {
	f.Add(uint16(0), uint32(100), uint8(0), uint64(7))
	f.Add(uint16(50), uint32(9000), uint8(2), uint64(0))
	f.Add(uint16(187), uint32(1), uint8(3), uint64(0xFFFF))
	f.Fuzz(func(t *testing.T, kSel uint16, eRaw uint32, rvRaw uint8, pattern uint64) {
		ks := ValidBlockSizes()
		k := ks[int(kSel)%len(ks)]
		if k > 2048 {
			k = 2048
		}
		k, _ = SmallestValidBlock(k)
		rm, err := NewRateMatcher(k)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCodec(k)
		if err != nil {
			t.Fatal(err)
		}
		e := int(eRaw)%(4*k) + 1
		rv := int(rvRaw) % MaxRVs
		info := make([]uint8, k)
		for i := range info {
			info[i] = uint8((pattern >> (uint(i) % 64)) & 1)
		}
		out := rm.Match(c.Encode(info), e, rv)
		if len(out) != e {
			t.Fatalf("K=%d E=%d: got %d bits", k, e, len(out))
		}
		// Accumulation must place exactly e contributions.
		acc := make([]float64, CodedLen(k))
		ones := make([]float64, e)
		for i := range ones {
			ones[i] = 1
		}
		rm.Accumulate(acc, ones, rv)
		var total float64
		for _, v := range acc {
			total += v
		}
		if total != float64(e) {
			t.Fatalf("K=%d E=%d rv=%d: %g contributions", k, e, rv, total)
		}
	})
}
