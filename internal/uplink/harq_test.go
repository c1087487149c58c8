package uplink_test

import (
	"testing"

	"ltephy/internal/phy/modulation"
	"ltephy/internal/rng"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

func TestRVForRoundCycle(t *testing.T) {
	want := []int{0, 2, 3, 1, 0, 2}
	for n, rv := range want {
		if got := uplink.RVForRound(n); got != rv {
			t.Errorf("RVForRound(%d) = %d, want %d", n, got, rv)
		}
	}
}

func TestNewHARQRequiresRateMatching(t *testing.T) {
	p := uplink.UserParams{PRB: 6, Layers: 1, Mod: modulation.QAM16}
	plain, err := uplink.NewTransportFormat(p, uplink.TurboPassthrough)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.NewHARQ(); err == nil {
		t.Error("HARQ accepted the pass-through format")
	}
	padded, err := uplink.NewTransportFormat(p, uplink.TurboFull)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := padded.NewHARQ(); err == nil {
		t.Error("HARQ accepted the zero-padded format")
	}
	rm, err := uplink.NewTransportFormatRate(p, uplink.TurboFull, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rm.NewHARQ(); err != nil {
		t.Errorf("HARQ rejected the rate-matched format: %v", err)
	}
}

// runReceiver pushes one transmission through the full receiver and
// returns the job (for SoftBits) and the standalone CRC outcome.
func runReceiver(t *testing.T, rc uplink.ReceiverConfig, u *uplink.UserData) (*uplink.UserJob, bool) {
	t.Helper()
	job, err := uplink.NewUserJob(rc, u)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range job.Stages() {
		for i := range s.Tasks(job) {
			s.Run(nil, job, i)
		}
	}
	return job, job.Result().CRCOK
}

// TestHARQIncrementalRedundancy is the end-to-end HARQ scenario: a heavily
// punctured first transmission fails at low SNR; combining the soft bits
// of an rv-2 retransmission (fresh channel and noise, same payload)
// recovers the transport block.
func TestHARQIncrementalRedundancy(t *testing.T) {
	cfg := tx.DefaultConfig()
	cfg.Receiver.Turbo = uplink.TurboFull
	cfg.Receiver.CodeRate = 0.85 // heavy puncturing: ~15% parity survives
	cfg.SNRdB = 7

	p := uplink.UserParams{ID: 1, PRB: 6, Layers: 1, Mod: modulation.QAM16}
	format, err := uplink.NewTransportFormatRate(p, uplink.TurboFull, cfg.Receiver.CodeRate)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]uint8, format.PayloadBits)
	pr := rng.New(77)
	for i := range payload {
		payload[i] = pr.Bit()
	}

	// First transmission, rv 0.
	u0, err := tx.GenerateWithPayload(cfg, p, rng.New(101), payload, uplink.RVForRound(0))
	if err != nil {
		t.Fatal(err)
	}
	job0, ok0 := runReceiver(t, cfg.Receiver, u0)
	if ok0 {
		t.Skip("first transmission decoded on its own; scenario needs a harsher channel seed")
	}

	hc := cfg.Receiver
	hc.TurboIterations = 6
	harq, err := format.NewHARQCfg(hc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := harq.Absorb(job0.SoftBits(), uplink.RVForRound(0)); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("combiner decoded from the first transmission the standalone decoder failed on (same data)")
	}
	if harq.Rounds() != 1 {
		t.Fatalf("rounds = %d", harq.Rounds())
	}

	// Retransmission, rv 2, fresh channel/noise.
	u1, err := tx.GenerateWithPayload(cfg, p, rng.New(202), payload, uplink.RVForRound(1))
	if err != nil {
		t.Fatal(err)
	}
	job1, _ := runReceiver(t, cfg.Receiver, u1)
	got, ok, err := harq.Absorb(job1.SoftBits(), uplink.RVForRound(1))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("HARQ combining of two transmissions still fails CRC")
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("combined payload bit %d differs", i)
		}
	}
}

func TestHARQRejectsWrongLength(t *testing.T) {
	p := uplink.UserParams{PRB: 4, Layers: 1, Mod: modulation.QPSK}
	format, err := uplink.NewTransportFormatRate(p, uplink.TurboFull, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	harq, err := format.NewHARQ()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := harq.Absorb(make([]float64, 10), 0); err == nil {
		t.Error("wrong-length soft bits accepted")
	}
}
