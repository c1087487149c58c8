package sched

import (
	"os"
	"runtime"
	"testing"
	"time"

	"ltephy/internal/obs"
	"ltephy/internal/params"
	"ltephy/internal/phy/modulation"
	"ltephy/internal/uplink"
)

// turboReceiver is the line-rate turbo configuration the fan-out tests
// run: rate-matched full decoding with the int8 kernel. CodeRate 0.508
// on a (PRB 14, 1 layer, 64-QAM) allocation makes the transport block
// exactly one maximum-size K=6144 code block — the shape whose serial
// decode the window fan-out exists to break up.
func turboReceiver() uplink.ReceiverConfig {
	rc := uplink.DefaultConfig()
	rc.Turbo = uplink.TurboFull
	rc.CodeRate = 0.508
	return rc
}

var turboMaxUser = uplink.UserParams{ID: 0, PRB: 14, Layers: 1, Mod: modulation.QAM64}

// turboDispatcherConfig aligns the transmitter with the TurboFull
// receiver: the dispatcher must encode what the pool will decode.
func turboDispatcherConfig(rc uplink.ReceiverConfig) DispatcherConfig {
	dc := testDispatcherConfig()
	dc.TX.Receiver = rc
	return dc
}

// TestTurboFanoutDeterministicAcrossWorkers is the fan-out acceptance
// check: a subframe whose backend is one maximum-size code block must
// produce bit-identical results — payload, CRC and realized
// half-iteration count — on the serial reference and on pools of every
// worker count, because trellis windows are independent and write
// disjoint state no matter which worker runs them.
func TestTurboFanoutDeterministicAcrossWorkers(t *testing.T) {
	rc := turboReceiver()
	d := NewDispatcher(turboDispatcherConfig(rc))
	sf, err := d.Subframe(0, []uplink.UserParams{turboMaxUser})
	if err != nil {
		t.Fatal(err)
	}
	want, err := uplink.ProcessSubframe(rc, sf)
	if err != nil {
		t.Fatal(err)
	}
	if !want[0].CRCOK {
		t.Fatal("reference decode failed CRC; fan-out comparison needs a decodable block")
	}
	if want[0].TurboHalfIters == 0 {
		t.Fatal("reference decode reported zero half-iterations in TurboFull mode")
	}
	for _, workers := range []int{1, 2, 4} {
		col := NewCollector()
		cfg := DefaultPoolConfig()
		cfg.Workers = workers
		cfg.Receiver = rc
		cfg.OnResult = col.Add
		pool, err := NewPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pool.ProcessSubframe(sf)
		pool.Close()
		got := col.Sorted()
		if len(got) != 1 {
			t.Fatalf("workers=%d: %d results, want 1", workers, len(got))
		}
		if !got[0].Equal(want[0]) {
			t.Errorf("workers=%d: result differs from serial reference (halfIters %d vs %d)",
				workers, got[0].TurboHalfIters, want[0].TurboHalfIters)
		}
	}
}

// TestTurboFanoutSpawnsWindowTasks pins that the decode actually fans
// out: on a multi-worker pool the single-block subframe must run more
// tasks than its stage tasks alone (4 chanest + 12 data), the surplus
// being backend window tasks pushed by the decoder's Parallel hook.
func TestTurboFanoutSpawnsWindowTasks(t *testing.T) {
	rc := turboReceiver()
	d := NewDispatcher(turboDispatcherConfig(rc))
	sf, err := d.Subframe(0, []uplink.UserParams{turboMaxUser})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPoolConfig()
	cfg.Workers = 4
	cfg.Receiver = rc
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool.ProcessSubframe(sf)
	pool.Close()
	var total int64
	for _, s := range pool.Stats() {
		total += s.TasksRun
	}
	stageTasks := int64(4 + 12) // antennas*layers chanest + 12*layers data
	if total <= stageTasks {
		t.Errorf("ran %d tasks, want > %d: turbo windows never became tasks", total, stageTasks)
	}
}

// TestBusyTimeExclusive pins that a worker's busy, nap and park time
// never overlap, so activity (Eq. 2) cannot exceed 1. The subframes fan
// the turbo decode out: the backend stage runs inline on the user thread
// while window tasks, its own and stolen ones, run inside it. Over the
// pool's whole life — started after the clock, closed before it stops, so
// no park straddles the window — busy + nap + park stays within the wall
// time for every worker.
func TestBusyTimeExclusive(t *testing.T) {
	rc := turboReceiver()
	rc.TurboIterations = 8
	dc := turboDispatcherConfig(rc)
	dc.TX.SNRdB = 0 // undecodable: every half-iteration fans out
	sf, err := NewDispatcher(dc).Subframe(0, []uplink.UserParams{turboMaxUser})
	if err != nil {
		t.Fatal(err)
	}
	const subframes = 4
	for _, workers := range []int{2, 4} {
		cfg := DefaultPoolConfig()
		cfg.Workers = workers
		cfg.Receiver = rc
		pool, err := newPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		start := obs.Nanotime()
		pool.start()
		for range subframes {
			pool.ProcessSubframe(sf)
		}
		pool.Close()
		wall := obs.Nanotime() - start
		var tasks int64
		for i, s := range pool.Stats() {
			tasks += s.TasksRun
			if sum := s.BusyNanos + s.NapNanos + s.ParkNanos; sum > wall {
				t.Errorf("workers=%d: worker %d busy %d + nap %d + park %d = %d ns exceeds wall %d ns",
					workers, i, s.BusyNanos, s.NapNanos, s.ParkNanos, sum, wall)
			}
		}
		if stageTasks := int64(subframes * (4 + 12)); tasks <= stageTasks {
			t.Fatalf("workers=%d: ran %d tasks, want > %d: the decode no longer fans out", workers, tasks, stageTasks)
		}
	}
}

// TestTurboVerifyTrace runs the paper's serial-vs-parallel verification
// over a mixed trace with full turbo decoding — small blocks (decoded
// inline) and the max-size block (fanned out) must both match the serial
// reference bit-for-bit, including realized half-iteration counts.
func TestTurboVerifyTrace(t *testing.T) {
	poolCfg := DefaultPoolConfig()
	poolCfg.Workers = 6
	poolCfg.Receiver = turboReceiver()
	trace := &params.Trace{Subframes: [][]uplink.UserParams{
		{turboMaxUser, {ID: 1, PRB: 4, Layers: 1, Mod: modulation.QPSK}},
		{{ID: 0, PRB: 6, Layers: 2, Mod: modulation.QAM16}},
		{turboMaxUser},
	}}
	if err := Verify(poolCfg, turboDispatcherConfig(poolCfg.Receiver), trace); err != nil {
		t.Fatal(err)
	}
}

// TestTurboFanoutSpeedupGate is the CI speedup gate (set
// LTEPHY_TURBO_SPEEDUP_GATE=1): one max-size code block on a 4-worker
// pool must decode at least 2x faster than on a single worker. The
// subframe is generated at low SNR so the decoder runs deep into its
// iteration budget (deterministically — same input, same half-iteration
// count on both pools) and the backend dominates the end-to-end time
// being compared.
func TestTurboFanoutSpeedupGate(t *testing.T) {
	if os.Getenv("LTEPHY_TURBO_SPEEDUP_GATE") == "" {
		t.Skip("set LTEPHY_TURBO_SPEEDUP_GATE=1 to run the fan-out speedup gate")
	}
	if runtime.NumCPU() < 4 {
		t.Skip("speedup gate needs >= 4 CPUs")
	}
	rc := turboReceiver()
	rc.TurboIterations = 8
	dc := turboDispatcherConfig(rc)
	dc.TX.SNRdB = 0 // undecodable: the budget, not the CRC gate, ends the decode
	d := NewDispatcher(dc)
	sf, err := d.Subframe(0, []uplink.UserParams{turboMaxUser})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(workers int) time.Duration {
		cfg := DefaultPoolConfig()
		cfg.Workers = workers
		cfg.Receiver = rc
		pool, err := NewPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		pool.ProcessSubframe(sf) // warm arenas and caches
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 7; i++ {
			start := time.Now()
			pool.ProcessSubframe(sf)
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return best
	}
	serial := measure(1)
	fanned := measure(4)
	speedup := float64(serial) / float64(fanned)
	t.Logf("single-worker %v, 4-worker %v, speedup %.2fx", serial, fanned, speedup)
	if speedup < 2 {
		t.Errorf("window fan-out speedup %.2fx < 2x (serial %v, 4-worker %v)", speedup, serial, fanned)
	}
}
