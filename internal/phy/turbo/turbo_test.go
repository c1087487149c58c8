package turbo

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestValidBlockSizes(t *testing.T) {
	ks := ValidBlockSizes()
	if len(ks) != 188 {
		t.Fatalf("got %d block sizes, want 188 (36.212 Table 5.1.3-3)", len(ks))
	}
	if ks[0] != 40 || ks[len(ks)-1] != 6144 {
		t.Errorf("size range [%d, %d], want [40, 6144]", ks[0], ks[len(ks)-1])
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatalf("sizes not strictly increasing at %d", i)
		}
	}
	// Spot-check the step structure.
	has := func(k int) bool {
		for _, v := range ks {
			if v == k {
				return true
			}
		}
		return false
	}
	for _, k := range []int{40, 48, 512, 528, 1024, 1056, 2048, 2112, 6144} {
		if !has(k) {
			t.Errorf("expected size %d missing", k)
		}
	}
	for _, k := range []int{44, 520, 1040, 2080, 6143} {
		if has(k) {
			t.Errorf("unexpected size %d present", k)
		}
	}
}

func TestSmallestValidBlock(t *testing.T) {
	cases := map[int]int{1: 40, 40: 40, 41: 48, 512: 512, 513: 528, 6144: 6144, 6100: 6144}
	for in, want := range cases {
		got, err := SmallestValidBlock(in)
		if err != nil || got != want {
			t.Errorf("SmallestValidBlock(%d) = %d, %v; want %d", in, got, err, want)
		}
	}
	if _, err := SmallestValidBlock(6145); err == nil {
		t.Error("SmallestValidBlock(6145) did not fail")
	}
}

func TestQPPBijectiveForAllSizes(t *testing.T) {
	for _, k := range ValidBlockSizes() {
		il := getInterleaver(k)
		seen := make([]bool, k)
		for _, p := range il.perm {
			if seen[p] {
				t.Fatalf("K=%d: interleaver not bijective", k)
			}
			seen[p] = true
		}
		for i, p := range il.perm {
			if il.inv[p] != int32(i) {
				t.Fatalf("K=%d: inverse permutation wrong at %d", k, i)
			}
		}
	}
}

func TestKnownQPP40(t *testing.T) {
	// 36.212: K=40 uses f1=3, f2=10, so pi(1) = 13, pi(2) = 46 mod 40 = 6.
	il := getInterleaver(40)
	if il.perm[0] != 0 || il.perm[1] != 13 || il.perm[2] != 6 {
		t.Errorf("K=40 permutation prefix = %v, want [0 13 6 ...]", il.perm[:3])
	}
}

func TestTrellisTermination(t *testing.T) {
	// From every state, three tail steps must reach state 0.
	for s := 0; s < nStates; s++ {
		st := uint8(s)
		for i := 0; i < 3; i++ {
			st = nextState[st][tailInput[st]]
		}
		if st != 0 {
			t.Errorf("state %d does not terminate to 0 (reached %d)", s, st)
		}
	}
}

func TestTrellisConnectivity(t *testing.T) {
	// Every state must be reachable and the two branches from a state must
	// lead to distinct states (invertible trellis).
	reach := make(map[uint8]bool)
	for s := 0; s < nStates; s++ {
		if nextState[s][0] == nextState[s][1] {
			t.Errorf("state %d: both inputs lead to state %d", s, nextState[s][0])
		}
		reach[nextState[s][0]] = true
		reach[nextState[s][1]] = true
	}
	if len(reach) != nStates {
		t.Errorf("only %d states reachable, want %d", len(reach), nStates)
	}
}

func TestEncodeLengthAndSystematic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, err := NewCodec(40)
	if err != nil {
		t.Fatal(err)
	}
	info := randBits(rng, 40)
	code := c.Encode(info)
	if len(code) != 3*40+12 {
		t.Fatalf("codeword length %d, want %d", len(code), 3*40+12)
	}
	for i := range info {
		if code[i] != info[i] {
			t.Fatalf("systematic bit %d altered", i)
		}
	}
}

func TestNewCodecRejectsInvalidK(t *testing.T) {
	for _, k := range []int{0, 39, 41, 6145} {
		if _, err := NewCodec(k); err == nil {
			t.Errorf("NewCodec(%d) did not fail", k)
		}
	}
}

func randBits(rng *rand.Rand, n int) []uint8 {
	b := make([]uint8, n)
	for i := range b {
		b[i] = uint8(rng.Intn(2))
	}
	return b
}

// bitsToLLR converts bits to perfect-channel LLRs (positive = 0).
func bitsToLLR(bits []uint8, mag float64) []float64 {
	llr := make([]float64, len(bits))
	for i, b := range bits {
		if b == 0 {
			llr[i] = mag
		} else {
			llr[i] = -mag
		}
	}
	return llr
}

// decode runs the product int8 decoder and returns its hard info bits.
func decode(c *Codec, llr []float64, iterations int) []uint8 {
	bits, _ := c.DecodeQuant(llr, DecodeOpts{Iterations: iterations})
	return bits
}

// segDecode runs the product segmented decode with no transport-block
// gate: the transport block and whether every per-block CRC24B verified.
func segDecode(s *Segmentation, llr []float64, iterations int) ([]uint8, bool) {
	tb, ok, _ := s.DecodeOptsInto(nil, nil, llr, SegDecodeOpts{Iterations: iterations})
	return tb, ok
}

func TestDecodeNoiseless(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{40, 112, 512, 1056, 6144} {
		c, err := NewCodec(k)
		if err != nil {
			t.Fatal(err)
		}
		info := randBits(rng, k)
		code := c.Encode(info)
		got := decode(c, bitsToLLR(code, 8), 3)
		for i := range info {
			if got[i] != info[i] {
				t.Fatalf("K=%d: noiseless decode differs at bit %d", k, i)
			}
		}
	}
}

// TestDecodeAWGN exercises the real coding gain: at Eb/N0 around 1.5 dB a
// rate-1/3 turbo code must decode essentially error-free, where an uncoded
// system would see several percent BER.
func TestDecodeAWGN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k = 512
	c, err := NewCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	ebn0 := math.Pow(10, 1.5/10)
	rate := float64(k) / float64(CodedLen(k))
	esn0 := ebn0 * rate // BPSK symbol SNR
	sigma := math.Sqrt(1 / (2 * esn0))
	bitErrs, trials := 0, 20
	for trial := 0; trial < trials; trial++ {
		info := randBits(rng, k)
		code := c.Encode(info)
		llr := make([]float64, len(code))
		for i, b := range code {
			x := 1.0
			if b == 1 {
				x = -1
			}
			y := x + sigma*rng.NormFloat64()
			llr[i] = 2 * y / (sigma * sigma)
		}
		got := decode(c, llr, 6)
		for i := range info {
			if got[i] != info[i] {
				bitErrs++
			}
		}
	}
	ber := float64(bitErrs) / float64(k*trials)
	if ber > 1e-3 {
		t.Errorf("turbo BER at 1.5 dB Eb/N0 = %g, want <= 1e-3", ber)
	}
}

// TestCodingGain verifies the decoder beats hard-decision on the
// systematic bits alone under noise — i.e. the iterations actually help.
func TestCodingGain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const k = 256
	c, _ := NewCodec(k)
	esn0 := math.Pow(10, -2.0/10) // -2 dB: uncoded BPSK is hopeless (~12% BER)
	sigma := math.Sqrt(1 / (2 * esn0))
	var hardErrs, turboErrs int
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		info := randBits(rng, k)
		code := c.Encode(info)
		llr := make([]float64, len(code))
		for i, b := range code {
			x := 1.0
			if b == 1 {
				x = -1
			}
			y := x + sigma*rng.NormFloat64()
			llr[i] = 2 * y / (sigma * sigma)
		}
		for i := 0; i < k; i++ {
			if (llr[i] < 0) != (info[i] == 1) {
				hardErrs++
			}
		}
		got := decode(c, llr, 8)
		for i := range info {
			if got[i] != info[i] {
				turboErrs++
			}
		}
	}
	if hardErrs == 0 {
		t.Fatal("test misconfigured: no uncoded errors at -2 dB")
	}
	if turboErrs*4 >= hardErrs {
		t.Errorf("turbo (%d errors) not clearly better than uncoded (%d) at -2 dB",
			turboErrs, hardErrs)
	}
}

func TestDecodeIterationsImprove(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k = 200
	c, _ := NewCodec(k)
	sigma := 1.1
	errsAt := func(iters int) int {
		r := rand.New(rand.NewSource(99))
		errs := 0
		for trial := 0; trial < 8; trial++ {
			info := randBits(rng, k)
			code := c.Encode(info)
			llr := make([]float64, len(code))
			for i, b := range code {
				x := 1.0
				if b == 1 {
					x = -1
				}
				llr[i] = 2 * (x + sigma*r.NormFloat64()) / (sigma * sigma)
			}
			got := decode(c, llr, iters)
			for i := range info {
				if got[i] != info[i] {
					errs++
				}
			}
		}
		return errs
	}
	// Not strictly monotone in general, but 6 iterations should not be
	// worse than 1 on aggregate.
	if e1, e6 := errsAt(1), errsAt(6); e6 > e1 {
		t.Errorf("more iterations hurt: 1 iter %d errors, 6 iters %d", e1, e6)
	}
}

func TestSegmentationSingleBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, b := range []int{1, 39, 40, 100, 6000, 6144} {
		s, err := NewSegmentation(b)
		if err != nil {
			t.Fatal(err)
		}
		if s.C != 1 {
			t.Errorf("B=%d: C=%d, want 1", b, s.C)
		}
		tb := randBits(rng, b)
		code := s.Encode(tb)
		got, ok := segDecode(s, bitsToLLR(code, 8), 2)
		if !ok {
			t.Errorf("B=%d: decode reported CRC failure with no per-block CRC", b)
		}
		if len(got) != b {
			t.Fatalf("B=%d: decoded %d bits", b, len(got))
		}
		for i := range tb {
			if got[i] != tb[i] {
				t.Fatalf("B=%d: bit %d differs", b, i)
			}
		}
	}
}

func TestSegmentationMultiBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, b := range []int{6145, 10000, 20000} {
		s, err := NewSegmentation(b)
		if err != nil {
			t.Fatal(err)
		}
		if s.C < 2 || !s.PerCRC {
			t.Fatalf("B=%d: C=%d PerCRC=%v, want multi-block with CRC", b, s.C, s.PerCRC)
		}
		tb := randBits(rng, b)
		code := s.Encode(tb)
		if len(code) != s.CodedLen() {
			t.Fatalf("B=%d: coded length %d, want %d", b, len(code), s.CodedLen())
		}
		got, ok := segDecode(s, bitsToLLR(code, 8), 2)
		if !ok {
			t.Errorf("B=%d: per-block CRC failed on clean decode", b)
		}
		for i := range tb {
			if got[i] != tb[i] {
				t.Fatalf("B=%d: bit %d differs", b, i)
			}
		}
	}
}

func TestSegmentationDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s, err := NewSegmentation(8000)
	if err != nil {
		t.Fatal(err)
	}
	tb := randBits(rng, 8000)
	code := s.Encode(tb)
	llr := bitsToLLR(code, 8)
	// Corrupt one codeword region so badly the decoder cannot recover:
	// zero out half of block 0's LLRs and flip the rest.
	for i := 0; i < CodedLen(s.K)/2; i++ {
		llr[i] = -llr[i]
	}
	_, ok := segDecode(s, llr, 2)
	if ok {
		t.Error("per-block CRC did not flag a destroyed code block")
	}
}

func TestSegmentationProperty(t *testing.T) {
	f := func(seed int64, sz uint16) bool {
		b := int(sz)%3000 + 1
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSegmentation(b)
		if err != nil {
			return false
		}
		tb := randBits(rng, b)
		got, ok := segDecode(s, bitsToLLR(s.Encode(tb), 6), 1)
		if !ok || len(got) != b {
			return false
		}
		for i := range tb {
			if got[i] != tb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{40, 512, 6144} {
		c, _ := NewCodec(k)
		info := randBits(rng, k)
		b.Run(sizeName(k), func(b *testing.B) {
			b.SetBytes(int64(k) / 8)
			for i := 0; i < b.N; i++ {
				c.Encode(info)
			}
		})
	}
}

func sizeName(k int) string {
	switch k {
	case 40:
		return "K40"
	case 512:
		return "K512"
	default:
		return "K6144"
	}
}

// TestEarlyStopMatchesFullDecode: early termination must return the same
// bits as the ungated decoder wherever the latter succeeds, after no more
// half-iterations, while spending only a couple on clean input.
func TestEarlyStopMatchesFullDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const k = 256
	c, err := NewCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	// Clean input: must stop well before the cap.
	info := randBits(rng, k)
	llr := bitsToLLR(c.Encode(info), 6)
	got, half := c.DecodeQuant(llr, DecodeOpts{Iterations: 8})
	if !slices.Equal(got, info) {
		t.Fatalf("early-stop decode wrong")
	}
	if half > 3 {
		t.Errorf("clean decode used %d half-iterations, expected early stop", half)
	}
	// Noisy input: a gate that accepts only the transmitted block (a CRC
	// stand-in) sees the decisions the ungated decode walks through, so
	// wherever that decode succeeds the gate fires no later, on the same bits.
	sigma := 0.9
	succeeded := 0
	for trial := 0; trial < 5; trial++ {
		info := randBits(rng, k)
		code := c.Encode(info)
		noisy := make([]float64, len(code))
		for i, b := range code {
			x := 1.0
			if b == 1 {
				x = -1
			}
			noisy[i] = 2 * (x + sigma*rng.NormFloat64()) / (sigma * sigma)
		}
		full, fullHalf := c.DecodeQuant(noisy, DecodeOpts{Iterations: 8})
		match := func(bits []uint8) bool { return slices.Equal(bits, info) }
		early, used := c.DecodeQuant(noisy, DecodeOpts{Iterations: 8, Check: match})
		if used < 1 || used > 16 {
			t.Fatalf("half-iterations used = %d", used)
		}
		if !slices.Equal(full, info) {
			continue
		}
		succeeded++
		if !slices.Equal(early, full) || used > fullHalf {
			t.Fatalf("trial %d: gated decode (%d half-iterations) disagrees with the ungated one (%d)",
				trial, used, fullHalf)
		}
	}
	if succeeded == 0 {
		t.Fatal("no noisy trial decoded; test is vacuous")
	}
}

// TestEarlyStopCRCCheck: a CRC-based stop terminates at the first passing
// half-iteration.
func TestEarlyStopCRCCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const k = 128
	c, err := NewCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	info := randBits(rng, k)
	llr := bitsToLLR(c.Encode(info), 6)
	calls := 0
	want := append([]uint8(nil), info...)
	_, half := c.DecodeQuant(llr, DecodeOpts{Iterations: 8, Check: func(bits []uint8) bool {
		calls++
		return slices.Equal(bits, want)
	}})
	if half != 1 || calls != 1 {
		t.Errorf("CRC stop used %d half-iterations / %d checks, want 1/1 on clean input", half, calls)
	}
}
