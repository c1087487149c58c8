package turbo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRateMatcherMappingBijective(t *testing.T) {
	for _, k := range []int{40, 112, 512, 1024, 6144} {
		rm, err := NewRateMatcher(k)
		if err != nil {
			t.Fatal(err)
		}
		// Every mother-code bit appears exactly once in the buffer; every
		// non-dummy buffer slot maps back.
		seen := make(map[int32]bool)
		for i, w := range rm.codeToW {
			if seen[w] {
				t.Fatalf("K=%d: buffer slot %d used twice", k, w)
			}
			seen[w] = true
			if rm.wToCode[w] != int32(i) {
				t.Fatalf("K=%d: inverse mapping broken at code bit %d", k, i)
			}
		}
		nonDummy := 0
		for _, c := range rm.wToCode {
			if c >= 0 {
				nonDummy++
			}
		}
		if nonDummy != CodedLen(k) {
			t.Fatalf("K=%d: %d non-dummy slots, want %d", k, nonDummy, CodedLen(k))
		}
	}
}

func TestRateMatchFullBufferIsPermutation(t *testing.T) {
	// Requesting exactly CodedLen bits at rv 0 must return every mother
	// bit exactly once (a permutation, no loss).
	const k = 104
	rm, err := NewRateMatcher(k)
	if err != nil {
		t.Fatal(err)
	}
	code := make([]uint8, CodedLen(k))
	for i := range code {
		code[i] = uint8(i % 2)
	}
	// Mark each bit with a unique value via position parity trick: instead
	// count ones after matching a codeword of distinct markers is not
	// possible with bits; use soft accumulate to verify coverage.
	llr := make([]float64, CodedLen(k))
	for i := range llr {
		llr[i] = 1
	}
	acc := make([]float64, CodedLen(k))
	rm.Accumulate(acc, llr, 0)
	for i, v := range acc {
		if v != 1 {
			t.Fatalf("bit %d accumulated %g contributions, want exactly 1", i, v)
		}
	}
}

func TestRateMatchRepetitionAccumulates(t *testing.T) {
	const k = 64
	rm, err := NewRateMatcher(k)
	if err != nil {
		t.Fatal(err)
	}
	e := 2 * CodedLen(k) // full repetition
	llr := make([]float64, e)
	for i := range llr {
		llr[i] = 1
	}
	acc := make([]float64, CodedLen(k))
	rm.Accumulate(acc, llr, 0)
	var total float64
	for i, v := range acc {
		if v < 1 {
			t.Fatalf("bit %d got %g contributions under repetition", i, v)
		}
		total += v
	}
	if total != float64(e) {
		t.Fatalf("accumulated %g contributions, want %d", total, e)
	}
}

func TestRateMatchPuncturingKeepsSystematic(t *testing.T) {
	// At moderate puncturing (rate 1/2) and rv 0, nearly all systematic
	// bits must survive — the property that makes rv 0 the self-decodable
	// version.
	const k = 512
	rm, err := NewRateMatcher(k)
	if err != nil {
		t.Fatal(err)
	}
	e := 2 * k // rate ~1/2
	llr := make([]float64, e)
	for i := range llr {
		llr[i] = 1
	}
	acc := make([]float64, CodedLen(k))
	rm.Accumulate(acc, llr, 0)
	missing := 0
	for i := 0; i < k; i++ {
		if acc[i] == 0 {
			missing++
		}
	}
	// rv 0 starts at k0 = 2R, deliberately skipping the first two
	// interleaved columns (~2R positions, mostly systematic) — that is the
	// standard's own start offset, so allow exactly that much loss.
	if missing > 2*rm.rows+8 {
		t.Errorf("rv0 rate-1/2 puncturing dropped %d/%d systematic bits (allowed ~%d)",
			missing, k, 2*rm.rows)
	}
}

func TestRVOffsetsDistinct(t *testing.T) {
	rm, err := NewRateMatcher(256)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for rv := 0; rv < MaxRVs; rv++ {
		off := rm.rvOffset(rv) % rm.kw
		if seen[off] {
			t.Errorf("rv %d offset %d collides", rv, off)
		}
		seen[off] = true
	}
}

// TestRateMatchedRoundTrip is the end-to-end property: encode, rate match
// to a random E, transmit noiselessly, de-rate-match, decode — the info
// bits must survive for rates the mother code supports.
func TestRateMatchedRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint16, eSel uint16, rvSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ks := ValidBlockSizes()
		k := ks[int(sz)%len(ks)]
		if k > 1024 {
			k = 1024 // keep the property test fast
		}
		k, _ = SmallestValidBlock(k)
		c, err := NewCodec(k)
		if err != nil {
			return false
		}
		rm, err := NewRateMatcher(k)
		if err != nil {
			return false
		}
		// Rates between ~0.4 (puncturing) and ~0.2 (repetition).
		e := int(float64(k)*2.5) + int(eSel)%(3*k)
		rv := int(rvSel) % MaxRVs
		if rv != 0 && e < 3*k {
			rv = 0 // punctured non-zero rv alone need not be self-decodable
		}
		info := randBits(rng, k)
		tx := rm.Match(c.Encode(info), e, rv)
		llr := make([]float64, CodedLen(k))
		rm.Accumulate(llr, bitsToLLR(tx, 4), rv)
		got := c.Decode(llr, 4)
		for i := range info {
			if got[i] != info[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalRedundancyGain: combining two punctured transmissions
// (rv 0 + rv 2) under noise must outperform a single transmission —
// the HARQ property the accumulator provides.
func TestIncrementalRedundancyGain(t *testing.T) {
	const k = 512
	c, err := NewCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := NewRateMatcher(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	e := 2 * k    // rate ~1/2 per transmission
	sigma := 1.05 // harsh enough that one transmission often fails
	trials := 12
	errsSingle, errsCombined := 0, 0
	noisyLLR := func(bits []uint8) []float64 {
		llr := make([]float64, len(bits))
		for i, b := range bits {
			x := 1.0
			if b == 1 {
				x = -1
			}
			llr[i] = 2 * (x + sigma*rng.NormFloat64()) / (sigma * sigma)
		}
		return llr
	}
	for trial := 0; trial < trials; trial++ {
		info := randBits(rng, k)
		code := c.Encode(info)
		tx0 := rm.Match(code, e, 0)
		tx2 := rm.Match(code, e, 2)

		single := make([]float64, CodedLen(k))
		rm.Accumulate(single, noisyLLR(tx0), 0)
		got := c.Decode(single, 6)
		for i := range info {
			if got[i] != info[i] {
				errsSingle++
			}
		}

		combined := make([]float64, CodedLen(k))
		rm.Accumulate(combined, noisyLLR(tx0), 0)
		rm.Accumulate(combined, noisyLLR(tx2), 2)
		got2 := c.Decode(combined, 6)
		for i := range info {
			if got2[i] != info[i] {
				errsCombined++
			}
		}
	}
	if errsSingle == 0 {
		t.Skip("channel too clean to show IR gain; adjust sigma")
	}
	if errsCombined*2 >= errsSingle {
		t.Errorf("IR combining (%d errors) not clearly better than single transmission (%d)",
			errsCombined, errsSingle)
	}
}

func TestRateMatchPanics(t *testing.T) {
	rm, err := NewRateMatcher(40)
	if err != nil {
		t.Fatal(err)
	}
	code := make([]uint8, CodedLen(40))
	for _, fn := range []func(){
		func() { rm.Match(code[:10], 100, 0) },
		func() { rm.Match(code, 0, 0) },
		func() { rm.Match(code, 100, 4) },
		func() { rm.Accumulate(make([]float64, 5), make([]float64, 10), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
	if _, err := NewRateMatcher(41); err == nil {
		t.Error("invalid K accepted")
	}
}

func TestRateMatcherCached(t *testing.T) {
	a, err := NewRateMatcher(320)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRateMatcher(320)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("rate matcher not cached")
	}
	if a.BufferLen() < CodedLen(320) {
		t.Errorf("buffer %d smaller than codeword %d", a.BufferLen(), CodedLen(320))
	}
}

func TestRateBounds(t *testing.T) {
	if MinRate <= 0 || MaxRate >= 1 || MinRate >= MaxRate {
		t.Errorf("rate bounds implausible: [%g, %g]", MinRate, MaxRate)
	}
	if math.Abs(MaxRate-0.92) > 1e-12 {
		t.Errorf("MaxRate = %g", MaxRate)
	}
}

func BenchmarkRateMatch(b *testing.B) {
	rm, _ := NewRateMatcher(6144)
	c, _ := NewCodec(6144)
	code := c.Encode(randBits(rand.New(rand.NewSource(1)), 6144))
	b.SetBytes(6144 / 8)
	for i := 0; i < b.N; i++ {
		rm.Match(code, 9000, 0)
	}
}

func BenchmarkDeRateMatch(b *testing.B) {
	rm, _ := NewRateMatcher(6144)
	llr := make([]float64, 9000)
	dst := make([]float64, CodedLen(6144))
	b.SetBytes(6144 / 8)
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = 0
		}
		rm.Accumulate(dst, llr, 0)
	}
}

// refAccumulate is Accumulate as it was before the dummy-free walk: one
// modulo and one dummy test per circular-buffer position.
func refAccumulate(rm *RateMatcher, dst, llr []float64, rv int) {
	pos := rm.rvOffset(rv)
	used := 0
	for used < len(llr) {
		if c := rm.wToCode[pos%rm.kw]; c >= 0 {
			dst[c] += llr[used]
			used++
		}
		pos++
	}
}

// TestAccumulateMatchesReference holds the straight-line walk to the same
// float64 additions in the same order: mother buffers equal bit for bit
// for every redundancy version, punctured (e < K_w), repeated (e > 2 K_w)
// and with a second version accumulated onto the first, as HARQ does.
func TestAccumulateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, k := range []int{40, 104, 512, 6144} {
		rm, err := NewRateMatcher(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []int{1, k, rm.kw - 1, CodedLen(k), rm.kw + 7, 2*rm.kw + 13} {
			for rv := 0; rv < MaxRVs; rv++ {
				got, want := make([]float64, CodedLen(k)), make([]float64, CodedLen(k))
				for _, v := range []int{rv, (rv + 2) % MaxRVs} {
					llr := make([]float64, e)
					for i := range llr {
						llr[i] = rng.NormFloat64() * math.Exp(8*rng.Float64())
					}
					rm.Accumulate(got, llr, v)
					refAccumulate(rm, want, llr, v)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("K=%d e=%d rv=%d onto %d: mother[%d] = %v, reference %v", k, e, v, rv, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
