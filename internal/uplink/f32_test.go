package uplink_test

import (
	"math"
	"testing"

	"ltephy/internal/phy/modulation"
	"ltephy/internal/phy/workspace"
	"ltephy/internal/rng"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

// Float32 instance validation: the float64 instance of the same code is
// the accuracy oracle (DESIGN.md §10). Every test here runs the same captured user
// data through both precisions and pins the divergence.

// runJobSoftBits drives one user through all four stages with heap
// scratch and returns the result plus the demapped LLR stream (which
// uplink.Process does not expose).
func runJobSoftBits(t testing.TB, rc uplink.ReceiverConfig, u *uplink.UserData) (uplink.UserResult, []float64) {
	t.Helper()
	j, err := uplink.NewUserJob(rc, u)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range j.Stages() {
		for i, n := 0, s.Tasks(j); i < n; i++ {
			s.Run(nil, j, i)
		}
	}
	return j.Result(), j.SoftBits()
}

// TestF32SweepMatchesComplex128 is the tentpole acceptance sweep: every
// allocation width nPRB 2..200 (including all the Bluestein lengths —
// multiples of 11, 13, ... — and both slot parities of the batched
// transforms) through both precisions, with pinned bounds on the EVM
// delta and the worst-case relative LLR divergence, and bit-identical
// decoded payloads.
func TestF32SweepMatchesComplex128(t *testing.T) {
	cfg := tx.DefaultConfig()
	const (
		maxEVMDelta = 1e-4 // |EVM_f32 - EVM_f64|, absolute
		maxLLRDiv   = 5e-3 // max_i |Δllr_i| / (1 + |llr_i|)
	)
	step := 1
	if testing.Short() {
		step = 7 // still hits Bluestein widths (e.g. nPRB 22, 141≡11·...)
	}
	var worstEVM, worstLLR float64
	var worstEVMPRB, worstLLRPRB int
	for prb := 2; prb <= 200; prb += step {
		p := uplink.UserParams{ID: 1, PRB: prb, Layers: 2, Mod: modulation.QAM16}
		u, err := tx.Generate(cfg, p, rng.New(uint64(prb)))
		if err != nil {
			t.Fatal(err)
		}
		rc := cfg.Receiver
		res64, llr64 := runJobSoftBits(t, rc, u)
		rc.Precision = uplink.PrecisionFloat32
		res32, llr32 := runJobSoftBits(t, rc, u)

		if d := math.Abs(res32.EVM - res64.EVM); d > worstEVM {
			worstEVM, worstEVMPRB = d, prb
		}
		if len(llr32) != len(llr64) {
			t.Fatalf("nPRB %d: %d f32 LLRs vs %d f64", prb, len(llr32), len(llr64))
		}
		for i := range llr64 {
			if d := math.Abs(llr32[i]-llr64[i]) / (1 + math.Abs(llr64[i])); d > worstLLR {
				worstLLR, worstLLRPRB = d, prb
			}
		}
		if res32.CRCOK != res64.CRCOK {
			t.Errorf("nPRB %d: f32 CRC %v, f64 CRC %v", prb, res32.CRCOK, res64.CRCOK)
		}
		if len(res32.Bits) != len(res64.Bits) {
			t.Fatalf("nPRB %d: payload lengths differ", prb)
		}
		for i := range res64.Bits {
			if res32.Bits[i] != res64.Bits[i] {
				t.Errorf("nPRB %d: decoded payload bit %d differs between precisions", prb, i)
				break
			}
		}
		if d := math.Abs(res32.ChannelMSE - res64.ChannelMSE); d > 1e-4*(1+res64.ChannelMSE) {
			t.Errorf("nPRB %d: channel MSE %g (f32) vs %g (f64)", prb, res32.ChannelMSE, res64.ChannelMSE)
		}
	}
	t.Logf("worst EVM delta %.3g (nPRB %d), worst relative LLR divergence %.3g (nPRB %d)",
		worstEVM, worstEVMPRB, worstLLR, worstLLRPRB)
	if worstEVM > maxEVMDelta {
		t.Errorf("EVM delta %g at nPRB %d exceeds pinned bound %g", worstEVM, worstEVMPRB, maxEVMDelta)
	}
	if worstLLR > maxLLRDiv {
		t.Errorf("LLR divergence %g at nPRB %d exceeds pinned bound %g", worstLLR, worstLLRPRB, maxLLRDiv)
	}
}

// TestF32LLRSignFlipAtLowSNR pins the demapper agreement at the lowest
// SNR point (5 dB) of the channel-accuracy sweep: the fraction of LLRs
// whose hard decision flips between precisions must stay within the
// pinned budget, and any flip must sit on a genuinely marginal LLR.
func TestF32LLRSignFlipAtLowSNR(t *testing.T) {
	cfg := tx.DefaultConfig()
	cfg.SNRdB = 5 // the lowest point of TestChanEstAccuracyImprovesWithSNR
	const (
		maxFlipRate = 1e-3 // fraction of LLRs changing sign between precisions
		maxEVMDelta = 1e-3 // EVM agreement at low SNR, absolute
	)
	p := uplink.UserParams{ID: 1, PRB: 8, Layers: 2, Mod: modulation.QPSK}
	u, err := tx.Generate(cfg, p, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	rc := cfg.Receiver
	res64, llr64 := runJobSoftBits(t, rc, u)
	rc.Precision = uplink.PrecisionFloat32
	res32, llr32 := runJobSoftBits(t, rc, u)

	// Scale of a typical LLR: flips are only acceptable near zero.
	var mean float64
	for _, v := range llr64 {
		mean += math.Abs(v)
	}
	mean /= float64(len(llr64))
	flips := 0
	for i := range llr64 {
		if (llr32[i] < 0) != (llr64[i] < 0) && llr64[i] != 0 {
			flips++
			if math.Abs(llr64[i]) > 1e-3*mean {
				t.Errorf("LLR %d flipped sign on a non-marginal value %g (mean magnitude %g)",
					i, llr64[i], mean)
			}
		}
	}
	rate := float64(flips) / float64(len(llr64))
	t.Logf("sign flips: %d / %d (rate %.2g), EVM delta %.3g",
		flips, len(llr64), rate, math.Abs(res32.EVM-res64.EVM))
	if rate > maxFlipRate {
		t.Errorf("LLR sign-flip rate %g exceeds pinned bound %g", rate, maxFlipRate)
	}
	if d := math.Abs(res32.EVM - res64.EVM); d > maxEVMDelta {
		t.Errorf("EVM delta %g at 5 dB exceeds pinned bound %g", d, maxEVMDelta)
	}
}

// TestF32ModuleMatrix runs every estimator/combiner registry entry (plus
// the estimated-noise, CFO-correction, scrambling and full-turbo paths)
// at float32 and checks each against the float64 instance — every stage
// kernel, including IRC covariance whitening and the LS estimator, stays
// on-oracle at the narrow width.
func TestF32ModuleMatrix(t *testing.T) {
	base := tx.DefaultConfig()
	cases := []struct {
		name string
		mut  func(*uplink.ReceiverConfig)
	}{
		{"mmse", func(rc *uplink.ReceiverConfig) {}},
		{"zf", func(rc *uplink.ReceiverConfig) { rc.Combiner = uplink.CombinerZF }},
		{"mrc", func(rc *uplink.ReceiverConfig) { rc.Combiner = uplink.CombinerMRC }},
		{"irc", func(rc *uplink.ReceiverConfig) { rc.Combiner = uplink.CombinerIRC }},
		{"ls-chanest", func(rc *uplink.ReceiverConfig) { rc.ChanEst = uplink.ChanEstLS }},
		{"est-noise", func(rc *uplink.ReceiverConfig) { rc.EstimateNoise = true }},
		{"cfo", func(rc *uplink.ReceiverConfig) { rc.CorrectCFO = true }},
		{"scramble", func(rc *uplink.ReceiverConfig) { rc.Scramble = true }},
		{"turbo-full", func(rc *uplink.ReceiverConfig) { rc.Turbo = uplink.TurboFull }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg.Receiver)
			p := uplink.UserParams{ID: 3, PRB: 6, Layers: 2, Mod: modulation.QAM16}
			u, err := tx.Generate(cfg, p, rng.New(11))
			if err != nil {
				t.Fatal(err)
			}
			res64, err := uplink.Process(cfg.Receiver, u)
			if err != nil {
				t.Fatal(err)
			}
			rc := cfg.Receiver
			rc.Precision = uplink.PrecisionFloat32
			res32, err := uplink.Process(rc, u)
			if err != nil {
				t.Fatal(err)
			}
			if res32.CRCOK != res64.CRCOK {
				t.Errorf("CRC %v (f32) vs %v (f64)", res32.CRCOK, res64.CRCOK)
			}
			for i := range res64.Bits {
				if res32.Bits[i] != res64.Bits[i] {
					t.Errorf("payload bit %d differs between precisions", i)
					break
				}
			}
			if d := math.Abs(res32.EVM - res64.EVM); d > 1e-3 {
				t.Errorf("EVM %g (f32) vs %g (f64)", res32.EVM, res64.EVM)
			}
			if d := math.Abs(res32.NoiseVarEst - res64.NoiseVarEst); d > 1e-6*(1+res64.NoiseVarEst) {
				t.Errorf("noise estimate %g (f32) vs %g (f64)", res32.NoiseVarEst, res64.NoiseVarEst)
			}
		})
	}
}

// TestF32Deterministic: the float32 instance must be bit-reproducible run
// to run, exactly like the float64 one.
func TestF32Deterministic(t *testing.T) {
	cfg := tx.DefaultConfig()
	cfg.Receiver.Precision = uplink.PrecisionFloat32
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
		t.Error("float32 path gave different results on identical input")
	}
}

// TestF32SteadyStateZeroAlloc is TestSteadyStateZeroAlloc at float32:
// after warm-up, a full subframe — split-plane packing, f32 transforms,
// Cholesky solves, the f32 demap into float64 LLRs — performs zero heap
// allocations.
func TestF32SteadyStateZeroAlloc(t *testing.T) {
	rc := uplink.DefaultConfig()
	rc.Precision = uplink.PrecisionFloat32
	sf := benchSubframe(t, rc)
	refs := make([]uplink.UserResult, len(sf.Users))
	for i, u := range sf.Users {
		r, err := uplink.Process(rc, u)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}
	ws := workspace.New()
	jobs := make([]*uplink.UserJob, len(sf.Users))
	for i := range jobs {
		jobs[i] = &uplink.UserJob{}
	}
	run := func() {
		ws.Reset()
		for i, u := range sf.Users {
			j := jobs[i]
			if err := j.Init(ws, rc, u); err != nil {
				t.Fatal(err)
			}
			for _, s := range j.Stages() {
				for ti, n := 0, s.Tasks(j); ti < n; ti++ {
					s.Run(ws, j, ti)
				}
			}
			if !j.Result().Equal(refs[i]) {
				t.Fatal("arena-path f32 result diverged from heap-path reference")
			}
		}
	}
	run()
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("steady-state f32 subframe performs %.1f allocations, want 0", allocs)
	}
}

// benchChanEstJobF32 is benchChanEstJob at float32.
func benchChanEstJobF32(tb testing.TB, stages int) (*workspace.Arena, *uplink.UserJob) {
	tb.Helper()
	rc := uplink.DefaultConfig()
	rc.Precision = uplink.PrecisionFloat32
	sf := benchSubframe(tb, rc)
	u := sf.Users[2] // PRB 6, 4 layers, 64-QAM: the widest task grid
	ws := workspace.New()
	j := &uplink.UserJob{}
	if err := j.Init(ws, rc, u); err != nil {
		tb.Fatal(err)
	}
	for si := 0; si < stages; si++ {
		benchStage(ws, j, si)
	}
	return ws, j
}

// BenchmarkChanEstStageF32 is BenchmarkChanEstStage on the float32 lane
// path.
func BenchmarkChanEstStageF32(b *testing.B) {
	ws, j := benchChanEstJobF32(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStage(ws, j, 0)
	}
}

// BenchmarkDataStageF32 is BenchmarkDataStage at float32.
func BenchmarkDataStageF32(b *testing.B) {
	ws, j := benchChanEstJobF32(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStage(ws, j, 2)
	}
}

// BenchmarkSubframeE2EF32 is the full-subframe benchmark at float32; the
// allocs/op budget is identical to the float64 one's.
func BenchmarkSubframeE2EF32(b *testing.B) {
	rc := uplink.DefaultConfig()
	rc.Precision = uplink.PrecisionFloat32
	sf := benchSubframe(b, rc)
	if _, err := uplink.ProcessSubframe(rc, sf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uplink.ProcessSubframe(rc, sf); err != nil {
			b.Fatal(err)
		}
	}
}
