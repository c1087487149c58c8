package main

import (
	"bytes"
	"fmt"
	"math"

	"ltephy/internal/fronthaul"
	"ltephy/internal/params"
	"ltephy/internal/phy/modulation"
	"ltephy/internal/rng"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

// Frozen constants. README.md records the sweeps they came from; the
// workload `why` lines in BENCHMARK.json repeat them.
const (
	defaultSeed = 1

	// Operating-point SNRs of ref_turbo_op: each user's first-transmission
	// block error rate is 10 % there (README "Operating-point sweep").
	opSNR16QAM = 7.0
	opSNRQPSK  = 0.0
	opSNR64QAM = 22.5

	// Open-loop offered rate of serve_wire phase B, subframes/s summed over
	// both cells: about half of what phase A sustains on the 2-core
	// reference box (README "Phase-B rate").
	wirePhaseBRate = 240.0

	// wireSweepFactor compresses the paper's 68,000-subframe triangular
	// layer/modulation ramp into the 512-subframe serve_wire pool.
	wireSweepFactor = 133
	wirePRBPool     = 24
	passthroughSNR  = 25.0
	// frontend_wide's two 4-layer users sit where an uncoded block never
	// survives, its 2-layer user where it always does: block_error_rate is
	// 2/3 on every seed. At 25 dB the 4-layer users fail about once in 64
	// blocks, a rate no pool of 96 blocks can state.
	wideSNR4Layer = 10.0
)

type userSpec struct {
	p     uplink.UserParams
	snrDB float64
}

// workload is one named set of inputs. Fixed-user workloads repeat users in
// every realisation; a nil users list draws each subframe's users from the
// paper's parameter model.
type workload struct {
	name     string
	rc       uplink.ReceiverConfig
	users    []userSpec
	poolSize int
	// wire selects where the end-to-end metrics are taken: at the socket of
	// an in-process fronthaul server instead of around uplink.ProcessSubframe.
	wire bool
}

func turboOpConfig() uplink.ReceiverConfig {
	rc := uplink.DefaultConfig()
	rc.Turbo = uplink.TurboFull
	rc.CodeRate = 0.5
	return rc
}

func refUsers(snr16, snrQPSK, snr64 float64) []userSpec {
	return []userSpec{
		{uplink.UserParams{ID: 0, PRB: 8, Layers: 2, Mod: modulation.QAM16}, snr16},
		{uplink.UserParams{ID: 1, PRB: 4, Layers: 1, Mod: modulation.QPSK}, snrQPSK},
		{uplink.UserParams{ID: 2, PRB: 6, Layers: 4, Mod: modulation.QAM64}, snr64},
	}
}

var workloads = []workload{
	{
		name:     "ref_passthrough",
		rc:       uplink.DefaultConfig(),
		users:    refUsers(passthroughSNR, passthroughSNR, passthroughSNR),
		poolSize: 256,
	},
	{
		name:  "ref_turbo_op",
		rc:    turboOpConfig(),
		users: refUsers(opSNR16QAM, opSNRQPSK, opSNR64QAM),
		// Three times the other reference pool: 2304 transport blocks keep
		// block_error_rate and the half-iteration mix steady from seed to seed.
		poolSize: 768,
	},
	{
		name: "frontend_wide",
		rc:   uplink.DefaultConfig(),
		users: []userSpec{
			{uplink.UserParams{ID: 0, PRB: 50, Layers: 4, Mod: modulation.QPSK}, wideSNR4Layer},
			{uplink.UserParams{ID: 1, PRB: 22, Layers: 4, Mod: modulation.QPSK}, wideSNR4Layer},
			{uplink.UserParams{ID: 2, PRB: 25, Layers: 2, Mod: modulation.QPSK}, passthroughSNR},
		},
		poolSize: 32,
	},
	{
		name:     "serve_wire",
		rc:       uplink.DefaultConfig(),
		poolSize: 512,
		wire:     true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// entry is one subframe realisation with what the serial reference receiver
// makes of it.
type entry struct {
	sf     uplink.Subframe
	golden []uplink.UserResult
	frame  []fronthaul.FrameUser
}

// pool is a workload's generated input plus the exact counts the golden pass
// produced.
type pool struct {
	entries []entry
	// cursor is where the next in-process pass picks up, so that successive
	// short passes walk the whole pool instead of its head.
	cursor int

	users, blockErrs      int
	halfIters, codeBlocks int
	prbLayers, infoBits   int
	demapBits             int
}

// take returns the next entry in cyclic order.
func (p *pool) take() *entry {
	e := &p.entries[p.cursor]
	if p.cursor++; p.cursor == len(p.entries) {
		p.cursor = 0
	}
	return e
}

func (p *pool) perSubframe(total int) float64 { return float64(total) / float64(len(p.entries)) }

func (p *pool) blockErrorRate() float64 { return float64(p.blockErrs) / float64(p.users) }

// buildPool synthesises size realisations from seed and runs the serial
// reference receiver (uplink.Process, heap scratch) once over each user.
// Every later pass over the pool, on any path, must reproduce these results.
func buildPool(w *workload, seed uint64, size int) (*pool, error) {
	pl := &pool{entries: make([]entry, size)}
	r := rng.New(seed)
	var model *params.Random
	if w.users == nil {
		// Keep one whole triangular sweep whatever the pool size.
		factor := wireSweepFactor * w.poolSize / size
		model = params.NewRandomCompressed(seed, factor).SetPool(wirePRBPool)
	}
	for i := range pl.entries {
		e := &pl.entries[i]
		e.sf.Seq = int64(i)
		specs := w.users
		if model != nil {
			specs = nil
			for _, p := range model.Next() {
				specs = append(specs, userSpec{p, passthroughSNR})
			}
		}
		for slot, s := range specs {
			u, err := tx.Generate(tx.Config{Receiver: w.rc, SNRdB: s.snrDB}, s.p, r.Split())
			if err != nil {
				return nil, fmt.Errorf("%s: realisation %d: %w", w.name, i, err)
			}
			// The receiver gets what a frontend would hand it, not the
			// transmitter's channel.
			u.Channel = nil
			g, err := uplink.Process(w.rc, u)
			if err != nil {
				return nil, fmt.Errorf("%s: realisation %d: %w", w.name, i, err)
			}
			e.sf.Users = append(e.sf.Users, u)
			e.golden = append(e.golden, g)
			e.frame = append(e.frame, fronthaul.FrameUser{Data: u, Priority: uint8(255 - slot)})

			f, err := uplink.NewTransportFormatRate(s.p, w.rc.Turbo, w.rc.CodeRate)
			if err != nil {
				return nil, err
			}
			pl.users++
			if blockError(&g, u) {
				pl.blockErrs++
			}
			pl.halfIters += g.TurboHalfIters
			if f.Seg != nil {
				pl.codeBlocks += f.Seg.C
			}
			pl.prbLayers += s.p.PRB * s.p.Layers
			pl.infoBits += f.PayloadBits
			pl.demapBits += f.TotalBits
		}
	}
	if model != nil {
		// The sweep ramps layers and modulation up and down again; shuffled,
		// every stretch of the replay carries the same mix, so time slices of
		// a run are comparable.
		for i := len(pl.entries) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			pl.entries[i], pl.entries[j] = pl.entries[j], pl.entries[i]
		}
		for i := range pl.entries {
			pl.entries[i].sf.Seq = int64(i)
		}
	}
	return pl, nil
}

// blockError is block_error_rate's numerator: the CRC failed or the payload
// is not what was transmitted.
func blockError(g *uplink.UserResult, u *uplink.UserData) bool {
	return !g.CRCOK || !bytes.Equal(g.Bits, u.Payload)
}

// sameResult is the per-user oracle: decoded bits, CRC flag, half-iteration
// count and the EVM bit pattern all match the golden pass. CRC-OK alone is
// not the oracle — an uncoded 4-layer 64-QAM user fails CRC by physics.
func sameResult(got, want *uplink.UserResult) bool {
	return got.UserID == want.UserID && got.CRCOK == want.CRCOK &&
		got.TurboHalfIters == want.TurboHalfIters &&
		math.Float64bits(got.EVM) == math.Float64bits(want.EVM) &&
		bytes.Equal(got.Bits, want.Bits)
}

func (e *entry) matches(results []uplink.UserResult) bool {
	if len(results) != len(e.golden) {
		return false
	}
	for i := range results {
		if !sameResult(&results[i], &e.golden[i]) {
			return false
		}
	}
	return true
}
