// Package power models the TILEPro64's power dissipation and the paper's
// analytical power-gating study, substituting for the NI USB-6210
// measurement rig (DESIGN.md §2).
//
// The dynamic model assigns each worker core a state-dependent power —
// busy (executing kernels), spinning (searching for work), or napping
// (clock-gated, with a duty-cycled periodic wake) — on top of the paper's
// measured 14 W base. A first-order thermal filter reproduces the
// temperature feedback the paper observes ("the higher average power
// raises the TILEPro64's temperature, which increases power"). Constants
// are calibrated so the four policies' full-trace averages land on the
// paper's Table I/II relationships; EXPERIMENTS.md records both sets of
// numbers.
//
// The static model implements Eqs. 6-9 verbatim: cores power-gated in
// groups of eight, sized by the maximum estimated active cores across a
// five-subframe window, 55 mW static per core, 15 mW toggle overhead.
package power

import (
	"fmt"

	"ltephy/internal/sim"
)

// Params are the model constants.
type Params struct {
	// BaseW is the measured idle-chip power: "the base power when the
	// TILEPro64 chip performs no work is 14 W".
	BaseW float64
	// BusyW/SpinW/NapW are per-core dynamic powers by state (watts).
	BusyW, SpinW, NapW float64
	// NapCheckDuty is the fraction of time a deactivated (proactively
	// napped) core spends awake checking its status flag.
	NapCheckDuty float64
	// IdleWakeDuty is the fraction of time a reactively napping core
	// spends awake polling for stealable work — the overhead that makes
	// IDLE dissipate slightly more than NAP in the paper.
	IdleWakeDuty float64
	// Thermal feedback: extra leakage proportional to how far the
	// low-pass-filtered power sits above ThermalRefW.
	ThermalTauSec float64
	ThermalGain   float64
	ThermalRefW   float64
	// Power gating (Section VI-C).
	CoreStaticW      float64 // 55 mW per core
	ToggleW          float64 // 15 mW per toggled core for one subframe
	GateGroup        int     // cores are gated in groups of eight
	GateWindowAhead  int     // Eq. 7: schedule known two subframes ahead
	GateWindowBehind int     // ... and up to three subframes in flight
	TotalCores       int     // 64 tiles
}

// Default returns the calibrated constants.
func Default() Params {
	return Params{
		BaseW:            14.0,
		BusyW:            0.210,
		SpinW:            0.153,
		NapW:             0.005,
		NapCheckDuty:     0.005,
		IdleWakeDuty:     0.16,
		ThermalTauSec:    40,
		ThermalGain:      0.08,
		ThermalRefW:      18,
		CoreStaticW:      0.055,
		ToggleW:          0.015,
		GateGroup:        8,
		GateWindowAhead:  2,
		GateWindowBehind: 2,
		TotalCores:       64,
	}
}

// Validate rejects nonsensical constants.
func (p Params) Validate() error {
	switch {
	case p.BaseW < 0 || p.BusyW <= 0 || p.SpinW < 0 || p.NapW < 0:
		return fmt.Errorf("power: negative state power")
	case p.NapCheckDuty < 0 || p.NapCheckDuty > 1 || p.IdleWakeDuty < 0 || p.IdleWakeDuty > 1:
		return fmt.Errorf("power: duty cycles must lie in [0,1]")
	case p.GateGroup < 1 || p.TotalCores < 1:
		return fmt.Errorf("power: invalid gating geometry")
	case p.ThermalTauSec <= 0:
		return fmt.Errorf("power: thermal time constant must be positive")
	}
	return nil
}

// deepNapW is the effective power of a proactively deactivated core.
func (p Params) deepNapW() float64 { return p.NapW + p.NapCheckDuty*(p.SpinW-p.NapW) }

// idleNapW is the effective power of a reactively napping core.
func (p Params) idleNapW() float64 { return p.NapW + p.IdleWakeDuty*(p.SpinW-p.NapW) }

// Series converts a simulation result into a per-window power trace
// (watts), including base power and thermal feedback — the model
// counterpart of the paper's 100 ms RMS measurements.
func Series(res *sim.Result, p Params) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := make([]float64, res.Windows())
	w := res.WindowCycles
	workers := float64(res.Cfg.Workers)
	for i := range out {
		busy := res.Busy[i] / w // core-equivalents busy
		if busy > workers {
			busy = workers // backlog draining past the last dispatch
		}
		capacity := workers
		if res.Cfg.Policy.UsesEstimator() {
			capacity = res.ActiveCap[i] / w
		}
		if capacity < busy {
			// Tasks started under a wider mask are still draining; those
			// cores are necessarily awake.
			capacity = busy
		}
		var dyn float64
		switch res.Cfg.Policy {
		case sim.NONAP:
			dyn = busy*p.BusyW + (workers-busy)*p.SpinW
		case sim.IDLE:
			dyn = busy*p.BusyW + (workers-busy)*p.idleNapW()
		case sim.NAP:
			dyn = busy*p.BusyW + (capacity-busy)*p.SpinW + (workers-capacity)*p.deepNapW()
		case sim.NAPIDLE:
			dyn = busy*p.BusyW + (capacity-busy)*p.idleNapW() + (workers-capacity)*p.deepNapW()
		case sim.DVFS:
			// Busy power scales ~f^3 (P ~ C*V^2*f with V ~ f); the
			// simulator pre-weighted busy wall time by f^3. Idle cores nap
			// reactively as under NAP+IDLE.
			busyF3 := res.BusyF3[i] / w
			dyn = busyF3*p.BusyW + (workers-busy)*p.idleNapW()
		default:
			return nil, fmt.Errorf("power: unknown policy %v", res.Cfg.Policy)
		}
		out[i] = p.BaseW + dyn
	}
	applyThermal(out, res.Cfg.WindowSec, p)
	return out, nil
}

// applyThermal adds leakage proportional to the excess of low-pass-
// filtered electrical power over the reference — a first-order stand-in
// for die-temperature-dependent leakage. The filter state starts at the
// reference (cold chip).
func applyThermal(series []float64, windowSec float64, p Params) {
	if p.ThermalGain == 0 {
		return
	}
	filtered := p.ThermalRefW
	alpha := windowSec / p.ThermalTauSec
	if alpha > 1 {
		alpha = 1
	}
	for i, v := range series {
		filtered += alpha * (v - filtered)
		if excess := filtered - p.ThermalRefW; excess > 0 {
			series[i] = v + p.ThermalGain*excess
		}
	}
}

// Mean returns the average of a power series.
func Mean(series []float64) float64 {
	if len(series) == 0 {
		return 0
	}
	var s float64
	for _, v := range series {
		s += v
	}
	return s / float64(len(series))
}

// GatingSchedule implements Eqs. 6-7: discretise each subframe's estimated
// active cores to gate groups, taking the maximum across the five-subframe
// window (two ahead — the schedule is known in advance — and two behind —
// still in flight).
func GatingSchedule(active []int, p Params) []int {
	powered := make([]int, len(active))
	for i := range active {
		m := 0
		lo := i - p.GateWindowBehind
		hi := i + p.GateWindowAhead
		if lo < 0 {
			lo = 0
		}
		if hi > len(active)-1 {
			hi = len(active) - 1
		}
		for j := lo; j <= hi; j++ {
			if active[j] > m {
				m = active[j]
			}
		}
		g := (m + p.GateGroup - 1) / p.GateGroup * p.GateGroup
		if g > p.TotalCores {
			g = p.TotalCores
		}
		if g < p.GateGroup {
			g = p.GateGroup // the group hosting the maintenance/driver tiles stays on
		}
		powered[i] = g
	}
	return powered
}

// GatingSavings implements Eqs. 8-9 per subframe: static power of the
// gated-off cores minus the toggle overhead.
func GatingSavings(powered []int, p Params) []float64 {
	savings := make([]float64, len(powered))
	for i, on := range powered {
		oh := 0.0
		if i > 0 {
			d := powered[i] - powered[i-1]
			if d < 0 {
				d = -d
			}
			oh = float64(d) * p.ToggleW
		}
		savings[i] = float64(p.TotalCores-on)*p.CoreStaticW - oh
	}
	return savings
}

// ApplyGating subtracts the per-subframe gating savings (aggregated into
// the result's measurement windows) from a power series — how the paper
// derives Fig. 16 from the NAP+IDLE measurement.
func ApplyGating(series []float64, res *sim.Result, p Params) ([]float64, error) {
	if len(series) != res.Windows() {
		return nil, fmt.Errorf("power: series has %d windows, result %d", len(series), res.Windows())
	}
	powered := GatingSchedule(res.ActiveCores, p)
	savings := GatingSavings(powered, p)
	perWindow := res.WindowCycles / res.Cfg.Cost.PeriodCycles(res.Cfg.PeriodSec)
	out := make([]float64, len(series))
	for w := range out {
		lo := int(float64(w) * perWindow)
		hi := int(float64(w+1) * perWindow)
		if hi > len(savings) {
			hi = len(savings)
		}
		var s float64
		n := 0
		for i := lo; i < hi; i++ {
			s += savings[i]
			n++
		}
		if n > 0 {
			s /= float64(n)
		}
		out[w] = series[w] - s
	}
	return out, nil
}

// FromWorkerStats estimates what a native worker-pool run would dissipate
// on the modelled TILEPro64: each worker's busy/nap/park/spin time
// fractions over the wall-clock window map to the per-core state powers.
// This lets cmd/lte-bench report an as-if power figure for host runs
// (extension — the paper measures only the real chip).
//
// A napping worker is a deactivated core that wakes periodically to check
// its status (deepNapW). A parked worker's thread sleeps in the kernel
// until a push wakes it, with no periodic check, so it is priced at the
// bare nap power NapW.
func FromWorkerStats(busyNanos, napNanos, parkNanos []int64, wallNanos int64, p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if len(busyNanos) != len(napNanos) || len(busyNanos) != len(parkNanos) || wallNanos <= 0 {
		return 0, fmt.Errorf("power: inconsistent stats (%d busy, %d nap, %d park, wall %d)",
			len(busyNanos), len(napNanos), len(parkNanos), wallNanos)
	}
	total := p.BaseW
	for i := range busyNanos {
		busy := clampFrac(float64(busyNanos[i]) / float64(wallNanos))
		nap := min(clampFrac(float64(napNanos[i])/float64(wallNanos)), 1-busy)
		park := min(clampFrac(float64(parkNanos[i])/float64(wallNanos)), 1-busy-nap)
		spin := 1 - busy - nap - park
		total += busy*p.BusyW + spin*p.SpinW + nap*p.deepNapW() + park*p.NapW
	}
	return total, nil
}

func clampFrac(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
