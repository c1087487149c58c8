package uplink_test

import (
	"math"
	"testing"

	"ltephy/internal/phy/modulation"
	"ltephy/internal/phy/turbo"
	"ltephy/internal/rng"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

func TestUserParamsValidate(t *testing.T) {
	good := uplink.UserParams{ID: 1, PRB: 10, Layers: 2, Mod: modulation.QAM16}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []uplink.UserParams{
		{PRB: 1, Layers: 1, Mod: modulation.QPSK},
		{PRB: 201, Layers: 1, Mod: modulation.QPSK},
		{PRB: 10, Layers: 0, Mod: modulation.QPSK},
		{PRB: 10, Layers: 5, Mod: modulation.QPSK},
		{PRB: 10, Layers: 1, Mod: modulation.Scheme(9)},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestSubcarriers(t *testing.T) {
	p := uplink.UserParams{PRB: 25}
	if got := p.Subcarriers(); got != 300 {
		t.Errorf("Subcarriers() = %d, want 300", got)
	}
}

func TestTransportFormatPassthrough(t *testing.T) {
	p := uplink.UserParams{PRB: 4, Layers: 2, Mod: modulation.QAM16}
	f, err := uplink.NewTransportFormat(p, uplink.TurboPassthrough)
	if err != nil {
		t.Fatal(err)
	}
	wantSyms := 12 * 2 * 48
	if f.Symbols != wantSyms {
		t.Errorf("Symbols = %d, want %d", f.Symbols, wantSyms)
	}
	if f.TotalBits != wantSyms*4 {
		t.Errorf("TotalBits = %d, want %d", f.TotalBits, wantSyms*4)
	}
	if f.PayloadBits != f.TotalBits-24 {
		t.Errorf("PayloadBits = %d, want TotalBits-24 = %d", f.PayloadBits, f.TotalBits-24)
	}
	if f.Seg != nil {
		t.Error("passthrough format has a segmentation plan")
	}
}

func TestTransportFormatFullFits(t *testing.T) {
	for _, p := range []uplink.UserParams{
		{PRB: 2, Layers: 1, Mod: modulation.QPSK},
		{PRB: 10, Layers: 2, Mod: modulation.QAM16},
		{PRB: 50, Layers: 4, Mod: modulation.QAM64},
		{PRB: 200, Layers: 4, Mod: modulation.QAM64},
	} {
		f, err := uplink.NewTransportFormat(p, uplink.TurboFull)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if f.CodedBits > f.TotalBits {
			t.Errorf("%+v: coded %d exceeds capacity %d", p, f.CodedBits, f.TotalBits)
		}
		if f.PayloadBits < f.TotalBits/4 {
			t.Errorf("%+v: payload %d suspiciously small for capacity %d (rate-1/3 code)",
				p, f.PayloadBits, f.TotalBits)
		}
		// Maximality: one more payload bit must not fit. (The padding can
		// still be large when segmentation bumps every block's K at once.)
		bigger, err := turbo.NewSegmentation(f.PayloadBits + 1 + 24)
		if err != nil {
			t.Fatal(err)
		}
		if bigger.CodedLen() <= f.TotalBits {
			t.Errorf("%+v: payload %d not maximal; %d more bits would fit",
				p, f.PayloadBits, bigger.CodedLen())
		}
	}
}

func TestTransportRoundTripBits(t *testing.T) {
	r := rng.New(1)
	for _, mode := range []uplink.TurboMode{uplink.TurboPassthrough, uplink.TurboFull} {
		p := uplink.UserParams{PRB: 6, Layers: 1, Mod: modulation.QAM16}
		f, err := uplink.NewTransportFormat(p, mode)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]uint8, f.PayloadBits)
		for i := range payload {
			payload[i] = r.Bit()
		}
		coded := f.EncodeTransportBlock(payload)
		if len(coded) != f.TotalBits {
			t.Fatalf("mode %v: coded length %d, want %d", mode, len(coded), f.TotalBits)
		}
		llr := make([]float64, len(coded))
		for i, b := range coded {
			if b == 0 {
				llr[i] = 5
			} else {
				llr[i] = -5
			}
		}
		got, ok, _ := f.DecodeTransportBlockParams(nil, nil, llr, uplink.DecodeParams{Iterations: 4})
		if !ok {
			t.Errorf("mode %v: CRC failed on clean round trip", mode)
		}
		for i := range payload {
			if got[i] != payload[i] {
				t.Fatalf("mode %v: payload bit %d differs", mode, i)
			}
		}
	}
}

// TestEndToEndBER is the central correctness test for the paper-faithful
// (pass-through turbo) receiver: across every (layers, modulation)
// combination the parameter model can produce, the payload BER must stay
// within the uncoded-MIMO fade floor and the channel estimate must be
// accurate. An outright CRC pass is only guaranteed without coding for the
// well-conditioned low-layer cases; high-layer spatial multiplexing relies
// on the turbo code (covered by TestEndToEndCRCFullTurbo).
func TestEndToEndBER(t *testing.T) {
	r := rng.New(2)
	cfg := tx.DefaultConfig()
	for _, layers := range []int{1, 2, 3, 4} {
		for _, mod := range []modulation.Scheme{modulation.QPSK, modulation.QAM16, modulation.QAM64} {
			p := uplink.UserParams{ID: 7, PRB: 6, Layers: layers, Mod: mod}
			u, err := tx.Generate(cfg, p, r)
			if err != nil {
				t.Fatal(err)
			}
			res, err := uplink.Process(cfg.Receiver, u)
			if err != nil {
				t.Fatal(err)
			}
			errs := 0
			for i := range u.Payload {
				if res.Bits[i] != u.Payload[i] {
					errs++
				}
			}
			ber := float64(errs) / float64(len(u.Payload))
			if ber > 0.05 {
				t.Errorf("layers=%d mod=%v: BER %g exceeds 5%% at %g dB SNR",
					layers, mod, ber, cfg.SNRdB)
			}
			if layers <= 2 && !res.CRCOK {
				t.Errorf("layers=%d mod=%v: CRC failed at %g dB SNR", layers, mod, cfg.SNRdB)
			}
			if math.IsNaN(res.ChannelMSE) || res.ChannelMSE > 0.05 {
				t.Errorf("layers=%d mod=%v: channel MSE %g too high", layers, mod, res.ChannelMSE)
			}
		}
	}
}

// TestEndToEndCRCFullTurbo: with the real turbo code, every combination —
// including 4-layer 64-QAM through its MMSE fades — must decode cleanly.
func TestEndToEndCRCFullTurbo(t *testing.T) {
	r := rng.New(2)
	cfg := tx.DefaultConfig()
	cfg.Receiver.Turbo = uplink.TurboFull
	for _, layers := range []int{1, 2, 3, 4} {
		for _, mod := range []modulation.Scheme{modulation.QPSK, modulation.QAM16, modulation.QAM64} {
			p := uplink.UserParams{ID: 7, PRB: 6, Layers: layers, Mod: mod}
			u, err := tx.Generate(cfg, p, r)
			if err != nil {
				t.Fatal(err)
			}
			res, err := uplink.Process(cfg.Receiver, u)
			if err != nil {
				t.Fatal(err)
			}
			if !res.CRCOK {
				t.Errorf("layers=%d mod=%v: full-turbo CRC failed at %g dB SNR",
					layers, mod, cfg.SNRdB)
				continue
			}
			for i := range u.Payload {
				if res.Bits[i] != u.Payload[i] {
					t.Errorf("layers=%d mod=%v: payload bit %d differs", layers, mod, i)
					break
				}
			}
		}
	}
}

func TestEndToEndFullTurbo(t *testing.T) {
	r := rng.New(3)
	cfg := tx.DefaultConfig()
	cfg.Receiver.Turbo = uplink.TurboFull
	cfg.SNRdB = 10 // the turbo code must survive where passthrough would not
	p := uplink.UserParams{ID: 1, PRB: 8, Layers: 2, Mod: modulation.QAM16}
	u, err := tx.Generate(cfg, p, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := uplink.Process(cfg.Receiver, u)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CRCOK {
		t.Fatal("full turbo decode failed CRC at 10 dB")
	}
	for i := range u.Payload {
		if res.Bits[i] != u.Payload[i] {
			t.Fatalf("payload bit %d differs", i)
		}
	}
}

func TestCRCFailsAtTerribleSNR(t *testing.T) {
	r := rng.New(4)
	cfg := tx.DefaultConfig()
	cfg.SNRdB = -15
	p := uplink.UserParams{ID: 1, PRB: 4, Layers: 1, Mod: modulation.QAM64}
	u, err := tx.Generate(cfg, p, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := uplink.Process(cfg.Receiver, u)
	if err != nil {
		t.Fatal(err)
	}
	if res.CRCOK {
		t.Error("CRC passed at -15 dB SNR; the check is not actually checking")
	}
}

func TestProcessDeterministic(t *testing.T) {
	cfg := tx.DefaultConfig()
	p := uplink.UserParams{ID: 3, PRB: 5, Layers: 2, Mod: modulation.QAM16}
	u, err := tx.Generate(cfg, p, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	a, err := uplink.Process(cfg.Receiver, u)
	if err != nil {
		t.Fatal(err)
	}
	b, err := uplink.Process(cfg.Receiver, u)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("processing the same data twice gave different results")
	}
}

func TestProcessSubframe(t *testing.T) {
	cfg := tx.DefaultConfig()
	params := []uplink.UserParams{
		{ID: 0, PRB: 4, Layers: 1, Mod: modulation.QPSK},
		{ID: 1, PRB: 6, Layers: 2, Mod: modulation.QAM16},
		{ID: 2, PRB: 2, Layers: 1, Mod: modulation.QAM64},
	}
	sf, err := tx.GenerateSubframe(cfg, 42, params, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	results, err := uplink.ProcessSubframe(cfg.Receiver, sf)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, res := range results {
		if res.Seq != 42 {
			t.Errorf("result %d: Seq = %d", i, res.Seq)
		}
		if res.UserID != params[i].ID {
			t.Errorf("result %d: UserID = %d", i, res.UserID)
		}
		if !res.CRCOK {
			t.Errorf("result %d: CRC failed", i)
		}
	}
	if sf.TotalPRB() != 12 {
		t.Errorf("TotalPRB = %d, want 12", sf.TotalPRB())
	}
}

func TestNewUserJobRejectsMismatches(t *testing.T) {
	cfg := tx.DefaultConfig()
	p := uplink.UserParams{ID: 1, PRB: 3, Layers: 1, Mod: modulation.QPSK}
	u, err := tx.Generate(cfg, p, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	rc := cfg.Receiver
	rc.Antennas = 2 // data was generated for 4 antennas
	if _, err := uplink.NewUserJob(rc, u); err == nil {
		t.Error("antenna mismatch accepted")
	}
	rc = cfg.Receiver
	rc.InterleaverColumns = 0
	if _, err := uplink.NewUserJob(rc, u); err == nil {
		t.Error("invalid config accepted")
	}
	u.Params.Layers = 0
	if _, err := uplink.NewUserJob(cfg.Receiver, u); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestChanEstAccuracyImprovesWithSNR pins the estimator chain's physics.
func TestChanEstAccuracyImprovesWithSNR(t *testing.T) {
	mseAt := func(snr float64) float64 {
		cfg := tx.DefaultConfig()
		cfg.SNRdB = snr
		p := uplink.UserParams{ID: 1, PRB: 8, Layers: 2, Mod: modulation.QPSK}
		u, err := tx.Generate(cfg, p, rng.New(8))
		if err != nil {
			t.Fatal(err)
		}
		res, err := uplink.Process(cfg.Receiver, u)
		if err != nil {
			t.Fatal(err)
		}
		return res.ChannelMSE
	}
	lo, hi := mseAt(30), mseAt(5)
	if lo >= hi {
		t.Errorf("channel MSE did not improve with SNR: 30dB %g vs 5dB %g", lo, hi)
	}
	if lo > 1e-2 {
		t.Errorf("channel MSE at 30 dB = %g, want < 1e-2", lo)
	}
}

func TestUserResultEqual(t *testing.T) {
	a := uplink.UserResult{UserID: 1, Seq: 2, CRCOK: true, Bits: []uint8{1, 0, 1}}
	b := uplink.UserResult{UserID: 1, Seq: 2, CRCOK: true, Bits: []uint8{1, 0, 1}}
	if !a.Equal(b) {
		t.Error("identical results not Equal")
	}
	c := b
	c.Bits = []uint8{1, 1, 1}
	if a.Equal(c) {
		t.Error("different bits reported Equal")
	}
	d := b
	d.CRCOK = false
	if a.Equal(d) {
		t.Error("different CRC status reported Equal")
	}
}

func BenchmarkProcessUser(b *testing.B) {
	cfg := tx.DefaultConfig()
	for _, tc := range []struct {
		name string
		p    uplink.UserParams
	}{
		{"small_QPSK_1L", uplink.UserParams{PRB: 4, Layers: 1, Mod: modulation.QPSK}},
		{"mid_16QAM_2L", uplink.UserParams{PRB: 25, Layers: 2, Mod: modulation.QAM16}},
		{"max_64QAM_4L", uplink.UserParams{PRB: 100, Layers: 4, Mod: modulation.QAM64}},
	} {
		u, err := tx.Generate(cfg, tc.p, rng.New(9))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := uplink.Process(cfg.Receiver, u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRateMatchedTransportFormat: the rate-matched TurboFull path fills
// the allocation exactly and carries the requested payload fraction.
func TestRateMatchedTransportFormat(t *testing.T) {
	p := uplink.UserParams{PRB: 10, Layers: 2, Mod: modulation.QAM16}
	for _, rate := range []float64{0.2, 1.0 / 3, 0.5, 0.75} {
		f, err := uplink.NewTransportFormatRate(p, uplink.TurboFull, rate)
		if err != nil {
			t.Fatalf("rate %g: %v", rate, err)
		}
		if f.CodedBits != f.TotalBits {
			t.Errorf("rate %g: coded %d != capacity %d (rate matching must fill exactly)",
				rate, f.CodedBits, f.TotalBits)
		}
		wantPayload := int(rate*float64(f.TotalBits)) - 24
		if f.PayloadBits != wantPayload {
			t.Errorf("rate %g: payload %d, want %d", rate, f.PayloadBits, wantPayload)
		}
	}
	// Out-of-range rates are rejected.
	if _, err := uplink.NewTransportFormatRate(p, uplink.TurboFull, 0.99); err == nil {
		t.Error("rate 0.99 accepted")
	}
	// Rate 0 falls back to the legacy padded format.
	f, err := uplink.NewTransportFormatRate(p, uplink.TurboFull, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rate != 0 || f.CodedBits > f.TotalBits {
		t.Error("rate 0 did not fall back to the padded format")
	}
}

// TestEndToEndRateMatched: a rate-1/2 rate-matched link survives 12 dB
// where uncoded transmission would not, and recovers the exact payload.
func TestEndToEndRateMatched(t *testing.T) {
	r := rng.New(21)
	cfg := tx.DefaultConfig()
	cfg.Receiver.Turbo = uplink.TurboFull
	cfg.Receiver.CodeRate = 0.5
	cfg.SNRdB = 12
	for _, p := range []uplink.UserParams{
		{ID: 1, PRB: 6, Layers: 1, Mod: modulation.QAM16},
		{ID: 2, PRB: 4, Layers: 2, Mod: modulation.QAM64},
	} {
		u, err := tx.Generate(cfg, p, r)
		if err != nil {
			t.Fatal(err)
		}
		res, err := uplink.Process(cfg.Receiver, u)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CRCOK {
			t.Errorf("%+v: rate-1/2 CRC failed at 12 dB", p)
			continue
		}
		for i := range u.Payload {
			if res.Bits[i] != u.Payload[i] {
				t.Fatalf("%+v: payload bit %d differs", p, i)
			}
		}
	}
}

// TestRateMatchedThroughputTradeoff: higher code rate carries more payload
// but needs more SNR — both directions checked at a fixed channel.
func TestRateMatchedThroughputTradeoff(t *testing.T) {
	p := uplink.UserParams{ID: 1, PRB: 8, Layers: 1, Mod: modulation.QAM16}
	payloadAt := func(rate float64) int {
		f, err := uplink.NewTransportFormatRate(p, uplink.TurboFull, rate)
		if err != nil {
			t.Fatal(err)
		}
		return f.PayloadBits
	}
	if payloadAt(0.75) <= payloadAt(0.5) || payloadAt(0.5) <= payloadAt(0.25) {
		t.Error("payload not increasing with code rate")
	}
	// At a brutally low SNR the high-rate link must fail while the
	// low-rate link survives (seeded, deterministic).
	runAt := func(rate float64, snr float64) bool {
		cfg := tx.DefaultConfig()
		cfg.Receiver.Turbo = uplink.TurboFull
		cfg.Receiver.CodeRate = rate
		cfg.SNRdB = snr
		u, err := tx.Generate(cfg, p, rng.New(33))
		if err != nil {
			t.Fatal(err)
		}
		res, err := uplink.Process(cfg.Receiver, u)
		if err != nil {
			t.Fatal(err)
		}
		return res.CRCOK
	}
	if !runAt(0.2, 3) {
		t.Error("rate-0.2 link failed at 3 dB")
	}
	if runAt(0.9, 3) {
		t.Error("rate-0.9 link passed at 3 dB; puncturing is not actually puncturing")
	}
}

// TestNoiseEstimation: the slot-difference noise estimator must track the
// true noise variance across SNRs and keep the link decodable without the
// genie value.
func TestNoiseEstimation(t *testing.T) {
	for _, snr := range []float64{10, 20, 30} {
		cfg := tx.DefaultConfig()
		cfg.SNRdB = snr
		cfg.Receiver.EstimateNoise = true
		p := uplink.UserParams{ID: 1, PRB: 16, Layers: 2, Mod: modulation.QPSK}
		u, err := tx.Generate(cfg, p, rng.New(13))
		if err != nil {
			t.Fatal(err)
		}
		res, err := uplink.Process(cfg.Receiver, u)
		if err != nil {
			t.Fatal(err)
		}
		truth := u.NoiseVar
		if res.NoiseVarEst < truth/3 || res.NoiseVarEst > truth*3 {
			t.Errorf("SNR %g dB: estimated noise %.3g vs true %.3g (off by >3x)",
				snr, res.NoiseVarEst, truth)
		}
		if !res.CRCOK {
			t.Errorf("SNR %g dB: CRC failed with estimated noise", snr)
		}
	}
}

// TestScrambling: a scrambled link decodes end-to-end; a receiver without
// descrambling sees noise-like bits and fails CRC.
func TestScrambling(t *testing.T) {
	cfg := tx.DefaultConfig()
	cfg.Receiver.Scramble = true
	p := uplink.UserParams{ID: 5, PRB: 4, Layers: 1, Mod: modulation.QAM16}
	u, err := tx.Generate(cfg, p, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	res, err := uplink.Process(cfg.Receiver, u)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CRCOK {
		t.Fatal("scrambled link failed CRC with matching receiver")
	}
	for i := range u.Payload {
		if res.Bits[i] != u.Payload[i] {
			t.Fatalf("payload bit %d differs", i)
		}
	}
	// Mismatched receiver: descrambling disabled.
	plain := cfg.Receiver
	plain.Scramble = false
	res2, err := uplink.Process(plain, u)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CRCOK {
		t.Error("receiver without descrambling passed CRC; scrambling is a no-op")
	}
}

// TestScrambleRoundTripBits: Scramble then Descramble(LLR view) inverts.
func TestScrambleRoundTripBits(t *testing.T) {
	r := rng.New(19)
	bits := make([]uint8, 500)
	for i := range bits {
		bits[i] = r.Bit()
	}
	orig := append([]uint8(nil), bits...)
	uplink.Scramble(bits, 3)
	changed := 0
	for i := range bits {
		if bits[i] != orig[i] {
			changed++
		}
	}
	if changed < 150 {
		t.Errorf("scrambling changed only %d/500 bits", changed)
	}
	// Build LLRs from scrambled bits, descramble, hard-decide.
	llr := make([]float64, len(bits))
	for i, b := range bits {
		if b == 0 {
			llr[i] = 4
		} else {
			llr[i] = -4
		}
	}
	uplink.Descramble(llr, 3)
	for i := range orig {
		got := uint8(0)
		if llr[i] < 0 {
			got = 1
		}
		if got != orig[i] {
			t.Fatalf("descramble mismatch at %d", i)
		}
	}
	// Different users use different sequences.
	a := uplink.ScramblingSequence(1, 200)
	b := uplink.ScramblingSequence(2, 200)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 150 {
		t.Errorf("user sequences agree in %d/200 positions", same)
	}
}

// TestEVMReported: the result's EVM tracks link quality.
func TestEVMReported(t *testing.T) {
	evmAt := func(snr float64) float64 {
		cfg := tx.DefaultConfig()
		cfg.SNRdB = snr
		p := uplink.UserParams{ID: 1, PRB: 6, Layers: 1, Mod: modulation.QAM16}
		u, err := tx.Generate(cfg, p, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		res, err := uplink.Process(cfg.Receiver, u)
		if err != nil {
			t.Fatal(err)
		}
		return res.EVM
	}
	good, bad := evmAt(30), evmAt(10)
	if good <= 0 || bad <= 0 {
		t.Fatalf("EVM not populated: %g, %g", good, bad)
	}
	if good >= bad {
		t.Errorf("EVM at 30 dB (%g) not below EVM at 10 dB (%g)", good, bad)
	}
	if good > 0.1 {
		t.Errorf("EVM at 30 dB = %g, want clean (<0.1)", good)
	}
}

// TestAntennaCountSweep: the receiver works across the supported antenna
// configurations (2, 4, 8), with layers capped by the antenna count.
func TestAntennaCountSweep(t *testing.T) {
	for _, antennas := range []int{2, 4, 8} {
		// Full-rank 2x2 uncoded multiplexing has no diversity margin, so
		// keep one layer at two antennas.
		layers := 2
		if antennas == 2 {
			layers = 1
		}
		cfg := tx.DefaultConfig()
		cfg.Receiver.Antennas = antennas
		p := uplink.UserParams{ID: 1, PRB: 4, Layers: layers, Mod: modulation.QAM16}
		u, err := tx.Generate(cfg, p, rng.New(uint64(antennas)))
		if err != nil {
			t.Fatalf("antennas=%d: %v", antennas, err)
		}
		res, err := uplink.Process(cfg.Receiver, u)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CRCOK {
			t.Errorf("antennas=%d: CRC failed", antennas)
		}
		// More antennas -> better channel estimate diversity is not
		// guaranteed per-link, but the chain must stay numerically sound.
		if res.ChannelMSE > 0.05 {
			t.Errorf("antennas=%d: channel MSE %g", antennas, res.ChannelMSE)
		}
	}
	// Antenna counts outside [1, 8] rejected.
	bad := uplink.DefaultConfig()
	bad.Antennas = 9
	if err := bad.Validate(); err == nil {
		t.Error("9 antennas accepted")
	}
}
