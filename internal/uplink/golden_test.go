package uplink_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"ltephy/internal/phy/modulation"
	"ltephy/internal/phy/workspace"
	"ltephy/internal/rng"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

// Golden digests of the receiver's arithmetic, one per precision: SHA-256
// over every soft bit, EVM, noise estimate and channel MSE (as Float64bits),
// payload bit and CRC verdict of goldenCorpus. A refactor that claims to
// move layout only must leave both unchanged; a change that alters the
// arithmetic on purpose re-records them and says why.
//
// The float64 digest is also the interleaved complex128 receiver's, which
// the float64 instance replaced bit for bit. The float32 one differs from
// the separate float32 receiver's only by the radix-5 butterfly's
// summation order, a0 + (c1*t1 + c2*t2), which the one kernel takes from
// the complex128 one.
const (
	goldenDigestFloat64 = "e1f501b375ec76091165364bb2a4878cc08d867e2f4ed095aa6a861005afcf41"
	goldenDigestFloat32 = "c98c98af466126294c2b1f18e464a2c4e1da18f15e5bf6615c1c1962f245de16"
)

// goldenCase is one user of the digest corpus.
type goldenCase struct {
	params uplink.UserParams
	mut    func(*uplink.ReceiverConfig)
}

// goldenCorpus is every combiner x channel estimator x turbo mode, with
// noise estimation, CFO correction and scrambling on, at four widths: 6 PRB
// (n = 72, radix 4 and 3 only), 25 PRB (n = 300, radix 5), 22 PRB (n = 264,
// the odd-prime radix-11 stage) and 127 PRB (n = 1524, Bluestein).
func goldenCorpus() []goldenCase {
	var cases []goldenCase
	widths := []uplink.UserParams{
		{ID: 1, PRB: 6, Layers: 2, Mod: modulation.QAM64},
		{ID: 2, PRB: 25, Layers: 2, Mod: modulation.QAM16},
		{ID: 3, PRB: 22, Layers: 1, Mod: modulation.QPSK},
		{ID: 4, PRB: 127, Layers: 2, Mod: modulation.QPSK},
	}
	for _, p := range widths {
		for _, comb := range []uplink.CombinerType{uplink.CombinerMMSE, uplink.CombinerZF, uplink.CombinerMRC, uplink.CombinerIRC} {
			for _, est := range []uplink.ChanEstType{uplink.ChanEstWindowed, uplink.ChanEstLS} {
				for _, turbo := range []uplink.TurboMode{uplink.TurboPassthrough, uplink.TurboFull} {
					comb, est, turbo := comb, est, turbo
					cases = append(cases, goldenCase{p, func(rc *uplink.ReceiverConfig) {
						rc.Combiner, rc.ChanEst, rc.Turbo = comb, est, turbo
						rc.EstimateNoise, rc.CorrectCFO, rc.Scramble = true, true, true
						if turbo == uplink.TurboFull {
							rc.CodeRate = 0.5
						}
					}})
				}
			}
		}
	}
	return cases
}

// goldenDigest runs the corpus at one precision and returns its digest.
func goldenDigest(t *testing.T, prec uplink.Precision) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	f64 := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	ws := workspace.New()
	j := &uplink.UserJob{}
	for i, c := range goldenCorpus() {
		cfg := tx.DefaultConfig()
		cfg.SNRdB = 12
		cfg.CFO = 0.01
		c.mut(&cfg.Receiver)
		u, err := tx.Generate(cfg, c.params, rng.New(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		rc := cfg.Receiver
		rc.Precision = prec
		ws.Reset()
		if err := j.Init(ws, rc, u); err != nil {
			t.Fatal(err)
		}
		for _, s := range j.Stages() {
			for ti, n := 0, s.Tasks(j); ti < n; ti++ {
				s.Run(ws, j, ti)
			}
		}
		res := j.Result()
		for _, v := range j.SoftBits() {
			f64(v)
		}
		f64(res.EVM)
		f64(res.NoiseVarEst)
		f64(res.ChannelMSE)
		h.Write(res.Bits)
		if res.CRCOK {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReceiverGoldenDigest pins both precisions' arithmetic bit for bit.
// Skipped off amd64, where the compiler fuses multiply-add and the low bits
// legitimately differ.
func TestReceiverGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; %s fuses multiply-add", runtime.GOARCH)
	}
	for _, tc := range []struct {
		prec uplink.Precision
		want string
	}{
		{uplink.PrecisionFloat64, goldenDigestFloat64},
		{uplink.PrecisionFloat32, goldenDigestFloat32},
	} {
		if got := goldenDigest(t, tc.prec); got != tc.want {
			t.Errorf("%v receiver digest %s, want %s", tc.prec, got, tc.want)
		}
	}
}
