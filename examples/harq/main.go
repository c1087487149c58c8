// HARQ: incremental-redundancy retransmission over the uplink receiver.
// A heavily punctured first transmission fails its CRC at low SNR; the
// eNodeB keeps the soft bits, the UE retransmits a different redundancy
// version of the same codeword, and soft combining recovers the block —
// the mechanism that lets LTE run aggressive code rates safely.
package main

import (
	"fmt"
	"log"

	"ltephy"
)

func main() {
	cfg := ltephy.DefaultTXConfig()
	cfg.Receiver.Turbo = ltephy.TurboFull
	cfg.Receiver.CodeRate = 0.85 // aggressive: only ~15% redundancy survives
	cfg.SNRdB = 7

	p := ltephy.UserParams{ID: 1, PRB: 6, Layers: 1, Mod: ltephy.QAM16}
	format, err := ltephy.NewTransportFormatRate(p, ltephy.TurboFull, cfg.Receiver.CodeRate)
	if err != nil {
		log.Fatal(err)
	}

	payload := make([]uint8, format.PayloadBits)
	pr := ltephy.NewRNG(77)
	for i := range payload {
		payload[i] = pr.Bit()
	}
	hc := cfg.Receiver
	hc.TurboIterations = 6
	harq, err := format.NewHARQCfg(hc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("HARQ over a rate-%.2f 16-QAM link at %.0f dB (%d payload bits)\n\n",
		cfg.Receiver.CodeRate, cfg.SNRdB, format.PayloadBits)

	for round := 0; round < 4; round++ {
		rv := ltephy.RVForRound(round)
		u, err := ltephy.GenerateWithPayload(cfg, p, ltephy.NewRNG(uint64(101*(round+1))), payload, rv)
		if err != nil {
			log.Fatal(err)
		}
		job, err := ltephy.NewUserJob(cfg.Receiver, u)
		if err != nil {
			log.Fatal(err)
		}
		for _, s := range job.Stages() {
			for i := range s.Tasks(job) {
				s.Run(nil, job, i)
			}
		}
		solo := job.Result()

		got, ok, err := harq.Absorb(job.SoftBits(), rv)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("transmission %d (rv %d): standalone CRC %-5v  combined CRC %-5v\n",
			round+1, rv, solo.CRCOK, ok)
		if ok {
			match := true
			for i := range payload {
				if got[i] != payload[i] {
					match = false
					break
				}
			}
			fmt.Printf("\ndecoded after %d transmission(s); payload intact: %v\n", harq.Rounds(), match)
			return
		}
	}
	fmt.Println("\nblock not recovered in 4 rounds — lower the code rate or raise SNR")
}
