package uplink_test

import (
	"fmt"
	"math"
	"testing"

	"ltephy/internal/phy/modulation"
	"ltephy/internal/phy/workspace"
	"ltephy/internal/rng"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

// runOnArena drives one user through the job's stages on ws, as a worker
// does. Before the backend stage, poison (when non-nil) may overwrite what
// that stage reads. It returns the result and a copy of the soft bits, and
// releases the user's scratch.
func runOnArena(ws *workspace.Arena, j *uplink.UserJob, rc uplink.ReceiverConfig, u *uplink.UserData, poison func(*uplink.UserJob)) (res uplink.UserResult, soft []float64, err error) {
	m := ws.Mark()
	defer ws.Release(m)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if err := j.Init(ws, rc, u); err != nil {
		return res, nil, err
	}
	stages := j.Stages()
	for si, s := range stages {
		if si == len(stages)-1 && poison != nil {
			poison(j)
		}
		for i, n := 0, s.Tasks(j); i < n; i++ {
			s.Run(ws, j, i)
		}
	}
	res = j.Result()
	res.Bits = append([]uint8(nil), res.Bits...)
	return res, append([]float64(nil), j.SoftBits()...), nil
}

func allZero(bits []uint8) bool {
	for _, b := range bits {
		if b != 0 {
			return false
		}
	}
	return true
}

// TestHostileSymbolsAtBackend puts NaN, ±Inf, ±0, denormal and 1e300
// symbols, under every noise variance the weight stage can hand over, in
// front of the fused demapper and follows them through the hard decision
// (pass-through) and the int8 quantiser (full turbo), at both precisions.
// The backend must not panic, must emit exactly TotalBits soft bits and a
// full-length payload, and must report CRC failure — except that
// zero-energy symbols carry no information at all and hard-decide to the
// all-zero word, which every linear code contains (telling that apart from
// a transmission is DTX detection, the ingest layer's job). The next user
// on the same arena and job must then decode bit-identically to a clean
// run: nothing hostile survives in scratch.
func TestHostileSymbolsAtBackend(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	all := func(v float64) func(int) complex128 {
		return func(int) complex128 { return complex(v, v) }
	}
	mix := []float64{nan, inf, -inf, 0, negZero, 5e-324, -5e-324, 1e300, -1e300, 0.3, -1.1}
	fills := []struct {
		name       string
		sym        func(i int) complex128
		zeroEnergy bool
	}{
		{"NaN", all(nan), false},
		{"+Inf", all(inf), false},
		{"-Inf", all(-inf), false},
		{"+0", all(0), true},
		{"-0", all(negZero), true},
		{"denormal", all(5e-324), true},
		{"1e300", all(1e300), false},
		{"-1e300", all(-1e300), false},
		{"mixed", func(i int) complex128 { return complex(mix[i%len(mix)], mix[(i/len(mix))%len(mix)]) }, false},
	}
	// resolveNoiseAndCFO clamps below at 1e-12 (NaN included); above, a
	// declared or estimated variance can be anything up to +Inf.
	noiseVars := []float64{1e-12, 1, 1e300, inf}

	cfg := tx.DefaultConfig()
	for _, prec := range []uplink.Precision{uplink.PrecisionFloat64, uplink.PrecisionFloat32} {
		for _, mode := range []uplink.TurboMode{uplink.TurboPassthrough, uplink.TurboFull} {
			rc := cfg.Receiver
			rc.Precision, rc.Turbo, rc.Scramble = prec, mode, true
			if mode == uplink.TurboFull {
				rc.CodeRate = 0.5
			}
			txCfg := cfg
			txCfg.Receiver = rc
			victim, err := tx.Generate(txCfg, uplink.UserParams{ID: 3, PRB: 4, Layers: 2, Mod: modulation.QAM64}, rng.New(31))
			if err != nil {
				t.Fatal(err)
			}
			next, err := tx.Generate(txCfg, uplink.UserParams{ID: 4, PRB: 3, Layers: 1, Mod: modulation.QAM16}, rng.New(32))
			if err != nil {
				t.Fatal(err)
			}
			wantNext, wantSoft, err := runOnArena(workspace.New(), &uplink.UserJob{}, rc, next, nil)
			if err != nil || !wantNext.CRCOK {
				t.Fatalf("%v/%v: clean reference run: err %v, CRC %v", prec, mode, err, wantNext.CRCOK)
			}
			ws, j := workspace.New(), &uplink.UserJob{}
			for _, f := range fills {
				for _, nv := range noiseVars {
					name := fmt.Sprintf("%v/%v/%s/nv=%g", prec, mode, f.name, nv)
					res, soft, err := runOnArena(ws, j, rc, victim, func(j *uplink.UserJob) { j.SetBackendInput(nv, f.sym) })
					if err != nil {
						t.Errorf("%s: %v", name, err)
						continue
					}
					if format := j.Format(); len(soft) != format.TotalBits || len(res.Bits) != format.PayloadBits {
						t.Errorf("%s: %d soft bits, %d payload bits; format has %d, %d",
							name, len(soft), len(res.Bits), format.TotalBits, format.PayloadBits)
					}
					if res.CRCOK && !(f.zeroEnergy && allZero(res.Bits)) {
						t.Errorf("%s: CRC passed", name)
					}
					got, gotSoft, err := runOnArena(ws, j, rc, next, nil)
					if err != nil {
						t.Fatalf("%s: next user: %v", name, err)
					}
					if !got.Equal(wantNext) || math.Float64bits(got.EVM) != math.Float64bits(wantNext.EVM) {
						t.Fatalf("%s: next user on the same arena differs from a clean run", name)
					}
					for i := range wantSoft {
						if math.Float64bits(gotSoft[i]) != math.Float64bits(wantSoft[i]) {
							t.Fatalf("%s: next user's soft bit %d differs from a clean run", name, i)
						}
					}
				}
			}
		}
	}
}

// TestHostileNoiseVariance feeds the receiver the noise variances its
// guards exist for, end to end: a declared NaN, zero, negative, denormal or
// infinite variance, and NaN IQ under noise estimation (a NaN estimate).
// The working variance must come out positive, never NaN, and nothing may
// panic; the NaN subframe (whose weights the singular-solve fallback zeroes,
// so it reaches the backend as zero energy) must not pass as data.
func TestHostileNoiseVariance(t *testing.T) {
	cfg := tx.DefaultConfig()
	p := uplink.UserParams{ID: 1, PRB: 3, Layers: 2, Mod: modulation.QAM16}
	for _, prec := range []uplink.Precision{uplink.PrecisionFloat64, uplink.PrecisionFloat32} {
		rc := cfg.Receiver
		rc.Precision = prec
		for _, nv := range []float64{math.NaN(), 0, -1, 5e-324, 1e300, math.Inf(1)} {
			u, err := tx.Generate(cfg, p, rng.New(9))
			if err != nil {
				t.Fatal(err)
			}
			u.NoiseVar = nv
			j := &uplink.UserJob{}
			if _, _, err := runOnArena(workspace.New(), j, rc, u, nil); err != nil {
				t.Errorf("%v: declared noise variance %g: %v", prec, nv, err)
			} else if !(j.NoiseVar() > 0) {
				t.Errorf("%v: declared noise variance %g: working variance %g", prec, nv, j.NoiseVar())
			}
		}
		u, err := tx.Generate(cfg, p, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		nan := complex(math.NaN(), math.NaN())
		for slot := range u.RefRx {
			for a := range u.RefRx[slot] {
				u.RefRx[slot][a][0] = nan
			}
		}
		rc.EstimateNoise = true
		j := &uplink.UserJob{}
		res, _, err := runOnArena(workspace.New(), j, rc, u, nil)
		if err != nil {
			t.Errorf("%v: NaN IQ under noise estimation: %v", prec, err)
		} else if !(j.NoiseVar() > 0) || (res.CRCOK && !allZero(res.Bits)) {
			t.Errorf("%v: NaN IQ under noise estimation: working variance %g, CRC %v", prec, j.NoiseVar(), res.CRCOK)
		}
	}
}

// TestHostileGridAtFrontDoor fills a user's whole received grids — the
// reference symbols, the data symbols, or both — with NaN, ±Inf, denormal,
// 1e300 or all-zero samples and runs the user through every stage: channel
// estimation and its FFTs, noise estimation, the weight solve (MMSE and
// IRC), combine/despread and the backend, at both precisions, at a smooth
// transform length (4 PRB, n = 48) and at a prime-radix one (22 PRB,
// n = 264 = 2^3*3*11). Nothing may panic and nothing hostile may pass as
// data: the CRC fails, or — where the solver rejected the Gram matrix and
// zeroed the weights, or the samples carried no energy to begin with — the
// backend sees zero energy and emits the all-zero word every linear code
// contains (telling that from a transmission is DTX detection, the ingest
// layer's job). A clean user decoded next on the same arena and job must be
// bit-identical to a fresh run.
func TestHostileGridAtFrontDoor(t *testing.T) {
	inf := math.Inf(1)
	fills := []struct {
		name string
		v    complex128
	}{
		{"NaN", complex(math.NaN(), math.NaN())},
		{"+Inf", complex(inf, inf)},
		{"-Inf", complex(-inf, -inf)},
		{"denormal", complex(5e-324, -5e-324)},
		{"1e300", complex(1e300, -1e300)},
		{"zero", 0},
	}
	targets := []struct {
		name      string
		ref, data bool
	}{{"ref", true, false}, {"data", false, true}, {"ref+data", true, true}}

	cfg := tx.DefaultConfig()
	for _, prec := range []uplink.Precision{uplink.PrecisionFloat64, uplink.PrecisionFloat32} {
		for _, comb := range []uplink.CombinerType{uplink.CombinerMMSE, uplink.CombinerIRC} {
			rc := cfg.Receiver
			rc.Precision, rc.Combiner = prec, comb
			rc.Scramble, rc.EstimateNoise, rc.CorrectCFO = true, true, true
			txCfg := cfg
			txCfg.Receiver = rc
			next, err := tx.Generate(txCfg, uplink.UserParams{ID: 4, PRB: 3, Layers: 1, Mod: modulation.QAM16}, rng.New(42))
			if err != nil {
				t.Fatal(err)
			}
			wantNext, wantSoft, err := runOnArena(workspace.New(), &uplink.UserJob{}, rc, next, nil)
			if err != nil || !wantNext.CRCOK {
				t.Fatalf("%v/%v: clean reference run: err %v, CRC %v", prec, comb, err, wantNext.CRCOK)
			}
			ws, j := workspace.New(), &uplink.UserJob{}
			for _, prb := range []int{4, 22} {
				for _, f := range fills {
					for _, tg := range targets {
						name := fmt.Sprintf("%v/%v/%d PRB/%s in %s", prec, comb, prb, f.name, tg.name)
						victim, err := tx.Generate(txCfg, uplink.UserParams{ID: 3, PRB: prb, Layers: 2, Mod: modulation.QPSK}, rng.New(41))
						if err != nil {
							t.Fatal(err)
						}
						for slot := range victim.RefRx {
							for a := range victim.RefRx[slot] {
								if tg.ref {
									fillWith(victim.RefRx[slot][a], f.v)
								}
								for sym := range victim.DataRx[slot] {
									if tg.data {
										fillWith(victim.DataRx[slot][sym][a], f.v)
									}
								}
							}
						}
						res, _, err := runOnArena(ws, j, rc, victim, nil)
						if err != nil {
							t.Errorf("%s: %v", name, err)
							continue
						}
						if len(res.Bits) != j.Format().PayloadBits {
							t.Errorf("%s: %d payload bits, format has %d", name, len(res.Bits), j.Format().PayloadBits)
						}
						if res.CRCOK && !allZero(res.Bits) {
							t.Errorf("%s: CRC passed on a non-zero payload", name)
						}
						got, gotSoft, err := runOnArena(ws, j, rc, next, nil)
						if err != nil {
							t.Fatalf("%s: next user: %v", name, err)
						}
						if !got.Equal(wantNext) || math.Float64bits(got.EVM) != math.Float64bits(wantNext.EVM) {
							t.Fatalf("%s: next user on the same arena differs from a clean run", name)
						}
						for i := range wantSoft {
							if math.Float64bits(gotSoft[i]) != math.Float64bits(wantSoft[i]) {
								t.Fatalf("%s: next user's soft bit %d differs from a clean run", name, i)
							}
						}
					}
				}
			}
		}
	}
}

func fillWith(dst []complex128, v complex128) {
	for i := range dst {
		dst[i] = v
	}
}
