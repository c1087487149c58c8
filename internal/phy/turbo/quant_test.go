package turbo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ltephy/internal/phy/workspace"
)

// addAWGN returns BPSK channel LLRs for bits at the given Eb/N0 (dB) for
// the rate-1/3 code, using rng for the noise — the same construction the
// float-oracle corpus tests use.
func awgnLLR(rng *rand.Rand, coded []uint8, ebn0dB float64) []float64 {
	esn0 := math.Pow(10, ebn0dB/10) / 3
	sigma := math.Sqrt(1 / (2 * esn0))
	llr := make([]float64, len(coded))
	for i, b := range coded {
		x := 1.0
		if b == 1 {
			x = -1
		}
		y := x + sigma*rng.NormFloat64()
		llr[i] = 2 * y / (sigma * sigma)
	}
	return llr
}

// TestQuantMatchesOracleCorpus mirrors the float-oracle corpus inputs
// (noiseless mag-8 LLRs across the size range, then fixed-seed AWGN
// trials) and requires the quantized decoder's payload to be
// bit-identical to the float64 oracle's.
func TestQuantMatchesOracleCorpus(t *testing.T) {
	t.Run("noiseless", func(t *testing.T) {
		for _, k := range []int{40, 112, 512, 1056, 6144} {
			t.Run(sizeName(k), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(k)))
				c, err := NewCodec(k)
				if err != nil {
					t.Fatal(err)
				}
				info := randBits(rng, k)
				coded := c.Encode(info)
				llr := bitsToLLR(coded, 8)
				want := c.oracleDecode(llr, 3)
				got, half := c.DecodeQuant(llr, DecodeOpts{Iterations: 3})
				if half < 1 {
					t.Fatalf("halfIters = %d", half)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("k=%d: bit %d differs from oracle", k, i)
					}
				}
			})
		}
	})
	t.Run("awgn", func(t *testing.T) {
		const k = 512
		c, err := NewCodec(k)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 20; trial++ {
			info := randBits(rng, k)
			llr := awgnLLR(rng, c.Encode(info), 1.5)
			want := c.oracleDecode(llr, 6)
			got, _ := c.DecodeQuant(llr, DecodeOpts{Iterations: 6})
			diff := 0
			for i := range want {
				if got[i] != want[i] {
					diff++
				}
			}
			if diff != 0 {
				t.Fatalf("trial %d: %d/%d payload bits differ from oracle", trial, diff, k)
			}
		}
	})
}

// TestQuantWindowDeterminism runs the same decode serially and through
// fan-outs over Parallel shims (including an out-of-order one) and
// requires bit-identical decisions and identical half-iteration counts.
func TestQuantWindowDeterminism(t *testing.T) {
	const k = 6144
	c, err := NewCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	info := randBits(rng, k)
	llr := awgnLLR(rng, c.Encode(info), 0.8)

	ref, refHalf := c.DecodeQuant(llr, DecodeOpts{Iterations: 6})

	shims := map[string]*Fanout{
		"reverse": reverseOrder(),
		"goroutines": NewFanout(func(n int, fn func(int)) {
			done := make(chan int)
			for i := 0; i < n; i++ {
				go func(i int) { fn(i); done <- i }(i)
			}
			for i := 0; i < n; i++ {
				<-done
			}
		}),
	}
	for name, p := range shims {
		t.Run(name, func(t *testing.T) {
			got, half := c.DecodeQuant(llr, DecodeOpts{Iterations: 6, Par: p})
			if half != refHalf {
				t.Fatalf("halfIters = %d, serial ran %d", half, refHalf)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("bit %d differs from serial decode", i)
				}
			}
		})
	}
}

// TestQuantArenaMatchesHeap pins the arena-backed decode to the
// heap-backed one, and checks LIFO bracketing leaves the arena reusable.
func TestQuantArenaMatchesHeap(t *testing.T) {
	const k = 1056
	c, err := NewCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	info := randBits(rng, k)
	llr := awgnLLR(rng, c.Encode(info), 1.2)
	want, wantHalf := c.DecodeQuant(llr, DecodeOpts{Iterations: 5})

	ws := workspace.New()
	for round := 0; round < 3; round++ {
		m := ws.Mark()
		got, half := c.DecodeQuantIn(ws, llr, DecodeOpts{Iterations: 5})
		if half != wantHalf {
			t.Fatalf("round %d: halfIters = %d, want %d", round, half, wantHalf)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: bit %d differs between arena and heap", round, i)
			}
		}
		ws.Release(m)
	}
}

// TestQuantEarlyTermination checks the two gates: realized half-iteration
// counts drop as SNR rises (CRC gate), and decoding a clean block with a
// CRC gate stops almost immediately.
func TestQuantEarlyTermination(t *testing.T) {
	const k = 1056
	c, err := NewCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	info := randBits(rng, k)
	// Gate on payload parity with the transmitted block — a stand-in CRC
	// with the same contract, letting the test observe gate behaviour
	// without layering a real checksum into the block.
	match := func(bits []uint8) bool {
		for i := range bits {
			if bits[i] != info[i] {
				return false
			}
		}
		return true
	}
	coded := c.Encode(info)
	mean := func(ebn0 float64) float64 {
		r := rand.New(rand.NewSource(99))
		total := 0
		const trials = 10
		for i := 0; i < trials; i++ {
			_, half := c.DecodeQuant(awgnLLR(r, coded, ebn0), DecodeOpts{Iterations: 8, Check: match})
			total += half
		}
		return float64(total) / trials
	}
	low, high := mean(0.5), mean(4.0)
	if high >= low {
		t.Fatalf("half-iterations did not drop with SNR: %.1f at 0.5dB vs %.1f at 4dB", low, high)
	}
	if high > 3 {
		t.Fatalf("high-SNR decode took %.1f half-iterations, want <= 3", high)
	}
}

// TestQuantCRCGateConsistency checks the gate never accepts a payload the
// float oracle rejects: across low-SNR trials where decoding fails, a
// gate that only matches the true payload must never fire, and the
// returned payload must disagree with the gate exactly when the oracle's
// does.
func TestQuantCRCGateConsistency(t *testing.T) {
	const k = 256
	c, err := NewCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	gateAccepts := 0
	for trial := 0; trial < 30; trial++ {
		info := randBits(rng, k)
		llr := awgnLLR(rng, c.Encode(info), -1.5)
		match := func(bits []uint8) bool {
			for i := range bits {
				if bits[i] != info[i] {
					return false
				}
			}
			return true
		}
		got, _ := c.DecodeQuant(llr, DecodeOpts{Iterations: 6, Check: match})
		if match(got) {
			gateAccepts++
			// When the gate fired, the payload must be the true one —
			// the gate can only pass on a correct payload by
			// construction, so a fire with wrong bits is impossible;
			// this asserts the decoder returned the accepted buffer.
			for i := range info {
				if got[i] != info[i] {
					t.Fatalf("trial %d: gate accepted a wrong payload", trial)
				}
			}
		}
	}
	t.Logf("gate accepted %d/30 at -1.5dB", gateAccepts)
}

// TestQuantBLERSweep pins the quantization loss: across an SNR ladder in
// 0.1 dB steps, the quantized decoder's block-error count at SNR x must
// be no worse than the float oracle's at x - 0.1 dB on identical noise
// realizations — i.e. the int8 path gives up at most 0.1 dB, measured
// around the oracle's ~1% BLER operating point.
func TestQuantBLERSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("BLER sweep is slow")
	}
	const k = 512
	const trials = 120
	c, err := NewCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	snrs := []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	// Fixed seed per run: float and int8 decode identical noise
	// realizations at every SNR, so the comparison is paired and the
	// test fully deterministic.
	run := func(oracle bool, ebn0 float64) int {
		rng := rand.New(rand.NewSource(42))
		errs := 0
		for trial := 0; trial < trials; trial++ {
			info := randBits(rng, k)
			llr := awgnLLR(rng, c.Encode(info), ebn0)
			var dec []uint8
			if oracle {
				dec = c.oracleDecode(llr, 6)
			} else {
				dec, _ = c.DecodeQuant(llr, DecodeOpts{Iterations: 6})
			}
			for i := range info {
				if dec[i] != info[i] {
					errs++
					break
				}
			}
		}
		return errs
	}
	floatErrs := make([]int, len(snrs))
	quantErrs := make([]int, len(snrs))
	for i, s := range snrs {
		floatErrs[i] = run(true, s)
		quantErrs[i] = run(false, s)
		t.Logf("%.1f dB: float %d/%d quant %d/%d", s, floatErrs[i], trials, quantErrs[i], trials)
	}
	// Quantization loss <= 0.1 dB: at every rung, int8 at SNR x must be
	// no worse than float at x-0.1dB (one rung lower) — checked through
	// the region bracketing the oracle's 1% BLER point.
	for i := 1; i < len(snrs); i++ {
		if quantErrs[i] > floatErrs[i-1] {
			t.Errorf("quant at %.1f dB (%d errs) worse than float at %.1f dB (%d errs): loss > 0.1 dB",
				snrs[i], quantErrs[i], snrs[i-1], floatErrs[i-1])
		}
	}
}

// TestSegmentOptsMatchesLegacy holds the segmented product decode to the
// float64 oracle's segmented decode across single- and multi-block
// transport sizes: the int8 kernel may outperform the oracle (extrinsic
// scaling recovers max-log loss), so the invariant is that it verifies
// every block the oracle verifies and then delivers the transmitted block.
func TestSegmentOptsMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, b := range []int{120, 4000, 9000} {
		t.Run(fmt.Sprintf("b%d", b), func(t *testing.T) {
			s, err := NewSegmentation(b)
			if err != nil {
				t.Fatal(err)
			}
			tb := randBits(rng, b)
			llr := awgnLLR(rng, s.Encode(tb), 1.5)
			want, wantOK := s.oracleSegDecode(llr, 5)
			if len(want) != b {
				t.Fatalf("oracle decoded %d bits", len(want))
			}
			got, ok, half := s.DecodeOptsInto(nil, nil, llr, SegDecodeOpts{Iterations: 5})
			if half < 1 || len(got) != b {
				t.Fatalf("int8 kernel: halfIters=%d len=%d", half, len(got))
			}
			if !ok {
				t.Fatalf("int8 kernel failed a block the test expects decodable (oracle ok=%v)", wantOK)
			}
			if !slices.Equal(got, tb) {
				t.Fatalf("int8 kernel: payload differs from the transmitted block")
			}
			if wantOK && s.PerCRC && !slices.Equal(want, tb) {
				t.Fatalf("oracle verified every block but delivered the wrong payload")
			}
		})
	}
}

func BenchmarkDecodeQuant(b *testing.B) {
	for _, k := range []int{512, 6144} {
		b.Run(sizeName(k), func(b *testing.B) {
			c, err := NewCodec(k)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			info := randBits(rng, k)
			llr := awgnLLR(rng, c.Encode(info), 1.5)
			ws := workspace.New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := ws.Mark()
				c.DecodeQuantIn(ws, llr, DecodeOpts{Iterations: 5})
				ws.Release(m)
			}
			b.SetBytes(int64(k) / 8)
		})
	}
}

// TestQuantOneNonFinite pins the quantiser where Go's float-to-int
// conversion is platform-defined: NaN is an erasure, infinities and
// overflowing products saturate with their own sign, and finite in-range
// values still round half away from zero.
func TestQuantOneNonFinite(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		v, scale float64
		want     int32
	}{
		{math.NaN(), 1, 0}, {1, math.NaN(), 0}, {inf, 0, 0}, // Inf·0 = NaN
		{inf, 1, qAprMax}, {-inf, 1, -qAprMax},
		{1e300, 1e300, qAprMax}, {-1e300, 1e300, -qAprMax},
		{5e9, 1, qAprMax}, {-5e9, 1, -qAprMax}, // past int32
		{126.6, 1, qAprMax}, {-200, 1, -qAprMax},
		{2.5, 1, 3}, {-2.5, 1, -3}, {0.49, 1, 0}, {math.Copysign(0, -1), 1, 0},
		{5e-324, 1, 0}, {31, 0.5, 16},
	} {
		if got := quantOne(c.v, c.scale); got != c.want {
			t.Errorf("quantOne(%g, %g) = %d, want %d", c.v, c.scale, got, c.want)
		}
	}
}

// The reference kernel: the window pass, saturation, normalisation and
// rounding of the commit before the branch-free kernel, verbatim but for
// the ref prefix. They are the oracle the kernel is bit-identical to; the
// tests below hold it to that after every half-iteration.

func refWindowPass(k int, slab []int32, w int, sys, par, apr, ext []int8, aPrev, aCur, bPrev, bCur []int32, cur []uint8, posMap []int32) {
	lo := w * qWindow
	hi := lo + qWindow
	if hi > k {
		hi = k
	}

	// Forward recursion from the previous-iteration in-boundary; column t
	// (alpha before consuming symbol t) is stored for the backward pass.
	ab := aPrev[w*nStates : (w+1)*nStates : (w+1)*nStates]
	a0, a1, a2, a3 := ab[0], ab[1], ab[2], ab[3]
	a4, a5, a6, a7 := ab[4], ab[5], ab[6], ab[7]
	for t := lo; t < hi; t++ {
		col := slab[t*nStates : t*nStates+nStates : t*nStates+nStates]
		col[0], col[1], col[2], col[3] = a0, a1, a2, a3
		col[4], col[5], col[6], col[7] = a4, a5, a6, a7
		ls := int32(sys[t]) + int32(apr[t])
		lp := int32(par[t])
		p, q := ls+lp, ls-lp
		a0, a1, a2, a3, a4, a5, a6, a7 =
			maxI32(a0+p, a4-p), maxI32(a0-p, a4+p),
			maxI32(a1+q, a5-q), maxI32(a1-q, a5+q),
			maxI32(a2-q, a6+q), maxI32(a2+q, a6-q),
			maxI32(a3-p, a7+p), maxI32(a3+p, a7-p)
	}
	refStoreNorm8(aCur[(w+1)*nStates:(w+2)*nStates], a0, a1, a2, a3, a4, a5, a6, a7)

	// Backward recursion from the previous-iteration out-boundary, fused
	// with extrinsic extraction and hard decisions. u_s/v_s are the
	// bit-0/bit-1 branch totals beta[next]+gamma for state s: nb[s] =
	// max(u_s, v_s), and joined with the stored alpha column they give
	// the two path-metric maxima whose difference is the total LLR.
	bb := bPrev[(w+1)*nStates : (w+2)*nStates : (w+2)*nStates]
	n0, n1, n2, n3 := bb[0], bb[1], bb[2], bb[3]
	n4, n5, n6, n7 := bb[4], bb[5], bb[6], bb[7]
	for t := hi - 1; t >= lo; t-- {
		col := slab[t*nStates : t*nStates+nStates : t*nStates+nStates]
		ls := int32(sys[t]) + int32(apr[t])
		lp := int32(par[t])
		p, q := ls+lp, ls-lp

		u0, v0 := n0+p, n1-p
		u1, v1 := n2+q, n3-q
		u2, v2 := n5+q, n4-q
		u3, v3 := n7+p, n6-p
		u4, v4 := n1+p, n0-p
		u5, v5 := n3+q, n2-q
		u6, v6 := n4+q, n5-q
		u7, v7 := n6+p, n7-p

		best0 := maxI32(maxI32(maxI32(col[0]+u0, col[1]+u1), maxI32(col[2]+u2, col[3]+u3)),
			maxI32(maxI32(col[4]+u4, col[5]+u5), maxI32(col[6]+u6, col[7]+u7)))
		best1 := maxI32(maxI32(maxI32(col[0]+v0, col[1]+v1), maxI32(col[2]+v2, col[3]+v3)),
			maxI32(maxI32(col[4]+v4, col[5]+v5), maxI32(col[6]+v6, col[7]+v7)))

		n0, n1, n2, n3 = maxI32(u0, v0), maxI32(u1, v1), maxI32(u2, v2), maxI32(u3, v3)
		n4, n5, n6, n7 = maxI32(u4, v4), maxI32(u5, v5), maxI32(u6, v6), maxI32(u7, v7)

		// best0-best1 is the total LLR at 2x scale (it contains
		// sys+apr+ext); subtracting 2*(sys+apr) leaves twice the
		// extrinsic, and (3*e)>>3 applies the 3/4 extrinsic scale while
		// returning to 1x, saturated into int8 for the next apriori.
		delta := best0 - best1
		pos := t
		if posMap != nil {
			pos = int(posMap[t])
		}
		if delta < 0 {
			cur[pos] = 1
		} else {
			cur[pos] = 0
		}
		e := delta - 2*ls
		ext[t] = refSat8(3 * e >> 3)
	}
	refStoreNorm8(bCur[w*nStates:(w+1)*nStates], n0, n1, n2, n3, n4, n5, n6, n7)
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func refStoreNorm8(dst []int32, m0, m1, m2, m3, m4, m5, m6, m7 int32) {
	norm := maxI32(maxI32(maxI32(m0, m1), maxI32(m2, m3)), maxI32(maxI32(m4, m5), maxI32(m6, m7)))
	dst = dst[:nStates:nStates]
	dst[0], dst[1], dst[2], dst[3] = m0-norm, m1-norm, m2-norm, m3-norm
	dst[4], dst[5], dst[6], dst[7] = m4-norm, m5-norm, m6-norm, m7-norm
}

func refQuantOne(v, scale float64) int32 {
	q := v * scale
	if !(math.Abs(q) < qAprMax) {
		// Saturated or NaN. Decided here, in float: converting either to
		// int32 is platform-defined in Go (MinInt32 on amd64, so +Inf
		// came out negative; 0 on arm64), and a hostile subframe must
		// decode the same everywhere.
		switch {
		case q > 0:
			return qAprMax
		case q < 0:
			return -qAprMax
		}
		return 0
	}
	if q >= 0 {
		return int32(q + 0.5)
	}
	return int32(q - 0.5)
}

func refSat8(v int32) int8 {
	if v > qAprMax {
		return qAprMax
	}
	if v < -qAprMax {
		return -qAprMax
	}
	return int8(v)
}

// refLoad is load with the reference quantiser: a two-compare peak scan and
// a rounding that branches on the sign.
func refLoad(d *qdecoderState, c *Codec, llr []float64) {
	d.load(c, llr)
	maxAbs := 0.0
	for _, v := range llr {
		if v > maxAbs {
			maxAbs = v
		} else if -v > maxAbs {
			maxAbs = -v
		}
	}
	scale := 1.0
	if maxAbs > 0 {
		scale = qChanMax / maxAbs
	}
	k := d.k
	for i, v := range llr[:k] {
		d.dec[0].sys[i] = int8(refQuantOne(v, scale))
		d.dec[0].par[i] = int8(refQuantOne(llr[k+i], scale))
		d.dec[1].par[i] = int8(refQuantOne(llr[2*k+i], scale))
	}
	permute(d.dec[1].sys, d.dec[0].sys, c.il.perm)
	for i := range d.dec {
		var tsys, tpar [3]int32
		for t := range tsys {
			tsys[t] = refQuantOne(llr[3*k+6*i+2*t], scale)
			tpar[t] = refQuantOne(llr[3*k+6*i+2*t+1], scale)
		}
		bt := qTailBeta(tsys, tpar)
		copy(d.dec[i].bPrev[d.nw*nStates:], bt[:])
		copy(d.dec[i].bCur[d.nw*nStates:], bt[:])
	}
}

// refHalf is half with every window run by the reference kernel.
func refHalf(d *qdecoderState, c *Codec, i int, cur []uint8) {
	dc, order, posMap := &d.dec[i], c.il.inv, []int32(nil)
	if i == 1 {
		order, posMap = c.il.perm, c.il.perm
	}
	permute(dc.apr, d.dec[1-i].ext, order)
	slab := make([]int32, d.k*nStates)
	for w := 0; w < d.nw; w++ {
		refWindowPass(d.k, slab, w, dc.sys, dc.par, dc.apr, dc.ext, dc.aPrev, dc.aCur, dc.bPrev, dc.bCur, cur, posMap)
	}
	dc.aPrev, dc.aCur = dc.aCur, dc.aPrev
	dc.bPrev, dc.bCur = dc.bCur, dc.bPrev
}

// refDecodeQuant is DecodeQuantIn on the reference quantiser and kernel.
func refDecodeQuant(c *Codec, llr []float64, opts DecodeOpts) ([]uint8, int) {
	halfIters := 2 * max(opts.Iterations, 1)
	d := newQDecoderState(nil, c.k)
	refLoad(&d, c, llr)
	cur, prev := make([]uint8, c.k), make([]uint8, c.k)
	for h := 1; h <= halfIters; h++ {
		refHalf(&d, c, (h-1)%2, cur)
		if done, bits := qStop(cur, prev, h, opts); done {
			return bits, h
		}
		cur, prev = prev, cur
	}
	return prev, halfIters
}

// reverseOrder returns a fan-out that runs the windows last to first.
func reverseOrder() *Fanout {
	return NewFanout(func(n int, fn func(int)) {
		for i := n - 1; i >= 0; i-- {
			fn(i)
		}
	})
}

// diffQState names the first buffer in which two decoder states differ.
func diffQState(a, b *qdecoderState) string {
	for i := range a.dec {
		x, y := &a.dec[i], &b.dec[i]
		for _, f := range []struct {
			name string
			same bool
		}{
			{"sys", slices.Equal(x.sys, y.sys)}, {"par", slices.Equal(x.par, y.par)},
			{"apr", slices.Equal(x.apr, y.apr)}, {"ext", slices.Equal(x.ext, y.ext)},
			{"aPrev", slices.Equal(x.aPrev, y.aPrev)}, {"aCur", slices.Equal(x.aCur, y.aCur)},
			{"bPrev", slices.Equal(x.bPrev, y.bPrev)}, {"bCur", slices.Equal(x.bCur, y.bCur)},
		} {
			if !f.same {
				return fmt.Sprintf("decoder %d %s", i+1, f.name)
			}
		}
	}
	return ""
}

// TestWindowKernelMatchesReference is the kernel's contract: after every
// half-iteration the decisions, the int8 extrinsics and all four
// boundary-metric buffers equal the reference kernel's, serially and
// through a Parallel that runs the windows in reverse, and a whole decode
// returns the same bits after the same number of half-iterations. Sizes:
// shorter than one window, a few windows, the fan-out threshold, a ragged
// last window, exactly 48 windows.
func TestWindowKernelMatchesReference(t *testing.T) {
	const iters = 4
	nan, inf := math.NaN(), math.Inf(1)
	for _, k := range []int{40, 512, 1024, 3136, 6144} {
		c, err := NewCodec(k)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		coded := c.Encode(randBits(rng, k))
		type input struct {
			name string
			llr  []float64
		}
		nonfin := awgnLLR(rng, coded, 1)
		for i := range nonfin {
			switch rng.Intn(16) {
			case 0:
				nonfin[i] = nan
			case 1:
				nonfin[i] = inf * float64(1-2*rng.Intn(2))
			}
		}
		inputs := []input{
			{"zero", make([]float64, len(coded))},
			{"tiny", bitsToLLR(coded, 5e-324)}, // the scale overflows: every stream at +-qAprMax
			{"nonfinite", nonfin},
		}
		for _, ebn0 := range []float64{-6, 0, 1, 2, 8} {
			inputs = append(inputs, input{fmt.Sprintf("awgn%+gdB", ebn0), awgnLLR(rng, coded, ebn0)})
		}
		for _, in := range inputs {
			for _, par := range []*Fanout{nil, reverseOrder()} {
				name, llr := in.name, in.llr
				t.Run(fmt.Sprintf("%s/%s/par=%v", sizeName(k), name, par != nil), func(t *testing.T) {
					got, want := newQDecoderState(nil, k), newQDecoderState(nil, k)
					got.load(c, llr)
					refLoad(&want, c, llr)
					if name == "tiny" {
						// Saturate the apriori as well: the widest branch
						// metrics the kernel can meet.
						for i := range got.dec[1].ext {
							got.dec[1].ext[i] = int8(qAprMax * (1 - 2*rng.Intn(2)))
						}
						copy(want.dec[1].ext, got.dec[1].ext)
					}
					if where := diffQState(&got, &want); where != "" {
						t.Fatalf("after load: %s differs", where)
					}
					gotBits, wantBits := make([]uint8, k), make([]uint8, k)
					for h := 0; h < 2*iters; h++ {
						got.half(c, h%2, gotBits, par)
						refHalf(&want, c, h%2, wantBits)
						if !slices.Equal(gotBits, wantBits) {
							t.Fatalf("half-iteration %d: decisions differ", h+1)
						}
						if where := diffQState(&got, &want); where != "" {
							t.Fatalf("half-iteration %d: %s differs", h+1, where)
						}
					}
					opts := DecodeOpts{Iterations: iters, Par: par}
					gotBits, gotHalf := c.DecodeQuant(llr, opts)
					wantBits, wantHalf := refDecodeQuant(c, llr, opts)
					if gotHalf != wantHalf || !slices.Equal(gotBits, wantBits) {
						t.Fatalf("decode: %d half-iterations, reference %d; bits equal: %v",
							gotHalf, wantHalf, slices.Equal(gotBits, wantBits))
					}
				})
			}
		}
	}
}

// TestQuantOneRounding pins the sign-carrying half against the rounding
// that branched on the sign, where they could part: one ulp either side of
// every half-integer tie and every integer in the int8 range.
func TestQuantOneRounding(t *testing.T) {
	for k := -128; k <= 128; k++ {
		for _, half := range []float64{-0.5, 0, 0.5} {
			x := float64(k) + half
			for _, v := range []float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))} {
				for _, scale := range []float64{1, 0.5, -1} {
					if got, want := quantOne(v/scale, scale), refQuantOne(v/scale, scale); got != want {
						t.Fatalf("quantOne(%g, %g) = %d, reference %d", v/scale, scale, got, want)
					}
				}
			}
		}
	}
}
