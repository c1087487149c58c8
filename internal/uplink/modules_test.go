package uplink_test

import (
	"testing"

	"ltephy/internal/phy/modulation"
	"ltephy/internal/rng"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

// berWith runs one link with the given receiver module selection and
// returns the payload bit error rate.
func berWith(t *testing.T, rc uplink.ReceiverConfig, p uplink.UserParams, snr float64, seed uint64) float64 {
	t.Helper()
	cfg := tx.DefaultConfig()
	cfg.Receiver = rc
	cfg.SNRdB = snr
	u, err := tx.Generate(cfg, p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := uplink.Process(rc, u)
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range u.Payload {
		if res.Bits[i] != u.Payload[i] {
			errs++
		}
	}
	return float64(errs) / float64(len(u.Payload))
}

// mseWith returns the channel-estimate MSE for a module selection.
func mseWith(t *testing.T, rc uplink.ReceiverConfig, p uplink.UserParams, snr float64, seed uint64) float64 {
	t.Helper()
	cfg := tx.DefaultConfig()
	cfg.Receiver = rc
	cfg.SNRdB = snr
	u, err := tx.Generate(cfg, p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := uplink.Process(rc, u)
	if err != nil {
		t.Fatal(err)
	}
	return res.ChannelMSE
}

// TestWindowingGain quantifies what the paper's IFFT-window-FFT chain buys
// over raw least squares: for a single-layer user the windowed estimate
// must be markedly cleaner (it discards 3/4 of the noise), and for a
// multi-layer user LS is not even usable (inter-layer interference).
func TestWindowingGain(t *testing.T) {
	base := uplink.DefaultConfig()
	ls := base
	ls.ChanEst = uplink.ChanEstLS

	single := uplink.UserParams{ID: 1, PRB: 8, Layers: 1, Mod: modulation.QPSK}
	w := mseWith(t, base, single, 15, 41)
	l := mseWith(t, ls, single, 15, 41)
	if w >= l {
		t.Errorf("windowed MSE %g not below LS MSE %g for one layer", w, l)
	}
	if l/w < 2 {
		t.Errorf("windowing gain only %.1fx; expected at least the ~4x noise rejection", l/w)
	}

	multi := uplink.UserParams{ID: 1, PRB: 8, Layers: 3, Mod: modulation.QPSK}
	wm := mseWith(t, base, multi, 15, 42)
	lm := mseWith(t, ls, multi, 15, 42)
	if lm < 10*wm {
		t.Errorf("LS multi-layer MSE %g not catastrophically above windowed %g", lm, wm)
	}
}

// TestCombinerHierarchy: for spatial multiplexing, MMSE must clearly beat
// MRC (which ignores inter-layer interference); for a single layer the two
// coincide up to scaling, so BERs match.
func TestCombinerHierarchy(t *testing.T) {
	mmse := uplink.DefaultConfig()
	mrc := mmse
	mrc.Combiner = uplink.CombinerMRC
	zf := mmse
	zf.Combiner = uplink.CombinerZF

	multi := uplink.UserParams{ID: 1, PRB: 8, Layers: 3, Mod: modulation.QAM16}
	berMMSE := berWith(t, mmse, multi, 22, 43)
	berMRC := berWith(t, mrc, multi, 22, 43)
	if berMRC < 10*berMMSE+0.01 {
		t.Errorf("MRC BER %g not clearly worse than MMSE %g under spatial multiplexing", berMRC, berMMSE)
	}
	// ZF suppresses interference: much closer to MMSE than MRC is.
	berZF := berWith(t, zf, multi, 22, 43)
	if berZF > berMRC/2 {
		t.Errorf("ZF BER %g not clearly better than MRC %g", berZF, berMRC)
	}

	single := uplink.UserParams{ID: 1, PRB: 8, Layers: 1, Mod: modulation.QAM16}
	sMMSE := berWith(t, mmse, single, 18, 44)
	sMRC := berWith(t, mrc, single, 18, 44)
	if sMRC > sMMSE+0.005 {
		t.Errorf("single-layer MRC BER %g differs from MMSE %g; they should coincide", sMRC, sMMSE)
	}
}

// TestZFNoiseAmplification: at low SNR with a fat channel matrix, MMSE's
// regularisation must not lose to plain inversion.
func TestZFNoiseAmplification(t *testing.T) {
	mmse := uplink.DefaultConfig()
	zf := mmse
	zf.Combiner = uplink.CombinerZF
	p := uplink.UserParams{ID: 1, PRB: 8, Layers: 4, Mod: modulation.QPSK}
	var mmseTotal, zfTotal float64
	for seed := uint64(50); seed < 56; seed++ {
		mmseTotal += berWith(t, mmse, p, 4, seed)
		zfTotal += berWith(t, zf, p, 4, seed)
	}
	if mmseTotal > zfTotal {
		t.Errorf("MMSE aggregate BER %g worse than ZF %g at low SNR", mmseTotal, zfTotal)
	}
}

func TestModuleConfigValidation(t *testing.T) {
	rc := uplink.DefaultConfig()
	rc.Combiner = uplink.CombinerType(9)
	if err := rc.Validate(); err == nil {
		t.Error("bogus combiner accepted")
	}
	rc = uplink.DefaultConfig()
	rc.ChanEst = uplink.ChanEstType(-1)
	if err := rc.Validate(); err == nil {
		t.Error("bogus channel estimator accepted")
	}
	if uplink.CombinerMRC.String() != "MRC" || uplink.CombinerZF.String() != "ZF" ||
		uplink.CombinerMMSE.String() != "MMSE" {
		t.Error("combiner names wrong")
	}
	if uplink.ChanEstLS.String() != "LS" || uplink.ChanEstWindowed.String() != "windowed" {
		t.Error("estimator names wrong")
	}
}

// TestModuleSwapsStayVerifiable: every module combination still satisfies
// the serial determinism contract the parallel runtime depends on.
func TestModuleSwapsStayVerifiable(t *testing.T) {
	p := uplink.UserParams{ID: 2, PRB: 4, Layers: 2, Mod: modulation.QAM16}
	for _, comb := range []uplink.CombinerType{uplink.CombinerMMSE, uplink.CombinerZF, uplink.CombinerMRC} {
		rc := uplink.DefaultConfig()
		rc.Combiner = comb
		cfg := tx.DefaultConfig()
		cfg.Receiver = rc
		u, err := tx.Generate(cfg, p, rng.New(60))
		if err != nil {
			t.Fatal(err)
		}
		a, err := uplink.Process(rc, u)
		if err != nil {
			t.Fatal(err)
		}
		b, err := uplink.Process(rc, u)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("combiner %v: processing not deterministic", comb)
		}
	}
}

// TestCFOEstimationAndCorrection: a residual carrier frequency offset
// breaks the uncorrected receiver; the inter-slot estimator recovers the
// offset and the corrected receiver decodes cleanly.
func TestCFOEstimationAndCorrection(t *testing.T) {
	const cfoTrue = 0.02 // 2% of subcarrier spacing (300 Hz at 15 kHz)
	p := uplink.UserParams{ID: 1, PRB: 8, Layers: 2, Mod: modulation.QAM16}

	make2 := func(correct bool) (uplink.UserResult, float64) {
		cfg := tx.DefaultConfig()
		cfg.CFO = cfoTrue
		cfg.Receiver.CorrectCFO = correct
		u, err := tx.Generate(cfg, p, rng.New(71))
		if err != nil {
			t.Fatal(err)
		}
		job, err := uplink.NewUserJob(cfg.Receiver, u)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range job.Stages() {
			for i := range s.Tasks(job) {
				s.Run(nil, job, i)
			}
		}
		return job.Result(), job.CFOEstimate()
	}

	resOff, _ := make2(false)
	if resOff.CRCOK {
		t.Error("uncorrected receiver survived a 2% CFO; the impairment is not biting")
	}
	resOn, est := make2(true)
	if !resOn.CRCOK {
		t.Error("CFO-corrected receiver failed CRC")
	}
	if est < 0.015 || est > 0.025 {
		t.Errorf("estimated CFO %.4f, want ~%.3f", est, cfoTrue)
	}

	// Without an impairment the corrector must be benign.
	cfg := tx.DefaultConfig()
	cfg.Receiver.CorrectCFO = true
	u, err := tx.Generate(cfg, p, rng.New(72))
	if err != nil {
		t.Fatal(err)
	}
	res, err := uplink.Process(cfg.Receiver, u)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CRCOK {
		t.Error("CFO corrector broke a clean link")
	}
}

// TestIRCRejectsColoredInterference: under co-channel interference from
// two spatial directions, the IRC combiner's covariance whitening must
// clearly beat white-noise MMSE — at rate-1/2 turbo coding and -6 dB INR,
// IRC decodes every trial cleanly while MMSE drops transport blocks.
// Without interference IRC must be benign.
func TestIRCRejectsColoredInterference(t *testing.T) {
	p := uplink.UserParams{ID: 1, PRB: 8, Layers: 1, Mod: modulation.QAM16}
	run := func(comb uplink.CombinerType, interferers int, seed uint64) (bool, float64) {
		cfg := tx.DefaultConfig()
		cfg.Receiver.Combiner = comb
		cfg.Receiver.Turbo = uplink.TurboFull
		cfg.Receiver.CodeRate = 0.5
		cfg.SNRdB = 25
		cfg.Interferers = interferers
		cfg.INRdB = -6
		u, err := tx.Generate(cfg, p, rng.New(seed))
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
		return res.CRCOK, float64(errs) / float64(len(u.Payload))
	}

	var mmseBER, ircBER float64
	mmsePass, ircPass := 0, 0
	const trials = 4
	for seed := uint64(80); seed < 80+trials; seed++ {
		ok1, b1 := run(uplink.CombinerMMSE, 2, seed)
		mmseBER += b1
		if ok1 {
			mmsePass++
		}
		ok2, b2 := run(uplink.CombinerIRC, 2, seed)
		ircBER += b2
		if ok2 {
			ircPass++
		}
	}
	if ircPass != trials {
		t.Errorf("IRC passed CRC only %d/%d times under interference", ircPass, trials)
	}
	if mmsePass >= trials {
		t.Errorf("MMSE passed all %d trials; interference too weak to discriminate", trials)
	}
	if ircBER >= mmseBER {
		t.Errorf("IRC aggregate BER %g not below MMSE %g under interference", ircBER, mmseBER)
	}

	// Benign without interference.
	ok, ber := run(uplink.CombinerIRC, 0, 90)
	if !ok || ber > 0 {
		t.Errorf("IRC on a clean link: crc=%v ber=%g", ok, ber)
	}
}
