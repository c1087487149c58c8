package main

import (
	"fmt"
	"io"

	"ltephy/internal/rng"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

// sweepOperatingPoint prints, for each ref_turbo_op user, first-transmission
// block error rate, turbo half-iterations and serial decode time against SNR
// in 0.5 dB steps around the frozen constant. It is the audit trail for
// opSNR16QAM / opSNRQPSK / opSNR64QAM (README "Operating-point sweep").
func sweepOperatingPoint(out io.Writer, seed uint64) error {
	const blocks = 768
	w, err := findWorkload("ref_turbo_op")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "| user | SNR dB | BLER | half-iters/code block | us/block |\n|---|---|---|---|---|\n")
	for _, s := range w.users {
		f, err := uplink.NewTransportFormatRate(s.p, w.rc.Turbo, w.rc.CodeRate)
		if err != nil {
			return err
		}
		for step := -4; step <= 4; step++ {
			snr := s.snrDB + 0.5*float64(step)
			r := rng.New(seed)
			errs, halfIters := 0, 0
			var ns int64
			for i := 0; i < blocks; i++ {
				u, err := tx.Generate(tx.Config{Receiver: w.rc, SNRdB: snr}, s.p, r.Split())
				if err != nil {
					return err
				}
				u.Channel = nil
				t := now()
				g, err := uplink.Process(w.rc, u)
				ns += now() - t
				if err != nil {
					return err
				}
				if blockError(&g, u) {
					errs++
				}
				halfIters += g.TurboHalfIters
			}
			fmt.Fprintf(out, "| %d PRB, %d layers, %v | %.1f | %.3f | %.2f | %.0f |\n",
				s.p.PRB, s.p.Layers, s.p.Mod, snr, float64(errs)/blocks,
				float64(halfIters)/float64(blocks*f.Seg.C), usec(float64(ns))/blocks)
		}
	}
	return nil
}
