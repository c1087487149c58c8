package uplink

import (
	"fmt"

	"ltephy/internal/phy/turbo"
)

// HARQProcess combines the soft bits of successive transmissions of the
// same transport block (incremental redundancy): each retransmission uses
// a different redundancy version of the rate-matched codeword, and the
// de-rate-matcher accumulates LLRs into the shared mother buffer until the
// CRC verifies. This is the eNodeB-side half of LTE's HARQ (TS 36.321);
// the paper's benchmark stops at a single CRC check, so this is an
// extension (DESIGN.md §5).
type HARQProcess struct {
	format    TransportFormat
	params    DecodeParams
	mother    []float64
	rounds    int
	halfIters int
}

// NewHARQ starts a combining process for the format, which must be the
// rate-matched TurboFull format (Rate > 0), decoding with the default
// receiver configuration. Use NewHARQCfg to configure iterations/kernel.
func (f TransportFormat) NewHARQ() (*HARQProcess, error) {
	return f.NewHARQCfg(DefaultConfig())
}

// NewHARQCfg starts a combining process whose decode attempts use the
// receiver configuration's turbo settings — the same iteration cap and
// kernel the subframe path applies, so bench/enb/sim configure HARQ and
// first transmissions from one place instead of hardcoding an iteration
// count at the Absorb call site.
func (f TransportFormat) NewHARQCfg(cfg ReceiverConfig) (*HARQProcess, error) {
	if f.Rate == 0 || f.Seg == nil {
		return nil, fmt.Errorf("uplink: HARQ requires the rate-matched TurboFull format")
	}
	return &HARQProcess{
		format: f,
		params: cfg.DecodeParams(),
		mother: make([]float64, f.Seg.MotherLen()),
	}, nil
}

// Rounds returns how many transmissions have been absorbed.
func (h *HARQProcess) Rounds() int { return h.rounds }

// Mother returns the accumulated mother-rate LLR buffer. The slice is
// the process's live state: callers may copy it out (checkpointing) but
// must not mutate it.
func (h *HARQProcess) Mother() []float64 { return h.mother }

// RestoreHARQCfg rebuilds a combining process from checkpointed state:
// the absorbed-round count and a snapshot of the mother buffer (copied
// in). The format and cfg must match the ones the snapshot was taken
// under — mother accumulation is plain float64 addition in a fixed
// order, so a restored process continues bit-identically.
func (f TransportFormat) RestoreHARQCfg(cfg ReceiverConfig, rounds int, mother []float64) (*HARQProcess, error) {
	h, err := f.NewHARQCfg(cfg)
	if err != nil {
		return nil, err
	}
	if len(mother) != len(h.mother) {
		return nil, fmt.Errorf("uplink: HARQ restore got %d mother LLRs, format expects %d",
			len(mother), len(h.mother))
	}
	if rounds < 0 {
		return nil, fmt.Errorf("uplink: HARQ restore with negative round count %d", rounds)
	}
	copy(h.mother, mother)
	h.rounds = rounds
	return h, nil
}

// HalfIters returns the realized turbo half-iteration count of the most
// recent Absorb.
func (h *HARQProcess) HalfIters() int { return h.halfIters }

// RVForRound returns the standard redundancy-version cycling for the n-th
// transmission (0-indexed): 0, 2, 3, 1 (TS 36.321 §5.4.2.2 ordering,
// chosen so the second transmission adds the most new parity).
func RVForRound(n int) int {
	return []int{0, 2, 3, 1}[n%4]
}

// Absorb accumulates one transmission's demapped (and descrambled) soft
// bits — exactly the LLR stream UserJob.SoftBits exposes — sent with the
// given redundancy version, then attempts a decode with the configured
// iteration cap.
func (h *HARQProcess) Absorb(llr []float64, rv int) (payload []uint8, ok bool, err error) {
	if len(llr) != h.format.TotalBits {
		return nil, false, fmt.Errorf("uplink: HARQ got %d soft bits, format expects %d",
			len(llr), h.format.TotalBits)
	}
	if err := h.format.Seg.AccumulateRM(h.mother, llr, rv); err != nil {
		return nil, false, err
	}
	h.rounds++
	tb, segOK, halfIters := h.format.Seg.DecodeOptsInto(nil, nil, h.mother, turbo.SegDecodeOpts{
		Iterations: h.params.Iterations,
		TBCheck:    tbCRCCheck,
	})
	h.halfIters = halfIters
	ok = segOK && tbCRC.CheckBits(tb)
	return tb[:len(tb)-tbCRC.Bits()], ok, nil
}
