package power

import (
	"math"
	"testing"

	"ltephy/internal/sim"
	"ltephy/internal/uplink"
)

// synthResult builds a sim.Result by hand: `windows` windows at the given
// busy core-equivalents and active-core counts.
func synthResult(policy sim.Policy, busyCores []float64, activeCores int) *sim.Result {
	cfg := sim.DefaultConfig()
	cfg.Policy = policy
	cfg.WindowSec = 0.1
	if policy.UsesEstimator() {
		cfg.ActiveCores = func(int64, []uplink.UserParams) int { return 0 } // placeholder, unused
	}
	res := &sim.Result{
		Cfg:          cfg,
		WindowCycles: cfg.Cost.PeriodCycles(cfg.WindowSec),
	}
	perWindow := int(cfg.WindowSec / cfg.PeriodSec)
	for _, b := range busyCores {
		res.Busy = append(res.Busy, b*res.WindowCycles)
		res.ActiveCap = append(res.ActiveCap, float64(activeCores)*res.WindowCycles)
		for i := 0; i < perWindow; i++ {
			res.ActiveCores = append(res.ActiveCores, activeCores)
		}
	}
	res.Subframes = len(res.ActiveCores)
	return res
}

func flat(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func noThermal() Params {
	p := Default()
	p.ThermalGain = 0
	return p
}

func TestNONAPPower(t *testing.T) {
	// 31 busy + 31 spinning on top of base.
	res := synthResult(sim.NONAP, flat(3, 31), 62)
	s, err := Series(res, noThermal())
	if err != nil {
		t.Fatal(err)
	}
	p := noThermal()
	want := p.BaseW + 31*p.BusyW + 31*p.SpinW
	for i, v := range s {
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("window %d: %g W, want %g", i, v, want)
		}
	}
	// Sanity: close to the paper's 25 W average at 50% load.
	if want < 23 || want > 27 {
		t.Errorf("NONAP at 50%% load = %.1f W, paper reports 25 W", want)
	}
}

// TestPolicyOrderingAtEqualLoad pins the paper's Table I ordering at 50%
// load with a sensible active set: NONAP >> IDLE > NAP(active=33) >
// NAP+IDLE.
func TestPolicyOrderingAtEqualLoad(t *testing.T) {
	p := noThermal()
	get := func(pol sim.Policy, active int) float64 {
		res := synthResult(pol, flat(3, 31), active)
		s, err := Series(res, p)
		if err != nil {
			t.Fatal(err)
		}
		return s[0]
	}
	nonap := get(sim.NONAP, 62)
	idle := get(sim.IDLE, 62)
	nap := get(sim.NAP, 33)
	napIdle := get(sim.NAPIDLE, 33)
	if !(nonap > idle && idle > nap && nap > napIdle) {
		t.Errorf("ordering violated: NONAP=%.2f IDLE=%.2f NAP=%.2f NAP+IDLE=%.2f",
			nonap, idle, nap, napIdle)
	}
	// Paper Table II magnitudes (+-1.5 W tolerance; exact values depend on
	// the sim's emergent spin fractions, recorded in EXPERIMENTS.md).
	for _, tc := range []struct {
		name string
		got  float64
		want float64
	}{
		{"NONAP", nonap, 25}, {"IDLE", idle, 20.7}, {"NAP", nap, 20.5}, {"NAP+IDLE", napIdle, 19.9},
	} {
		if math.Abs(tc.got-tc.want) > 1.5 {
			t.Errorf("%s = %.2f W, paper reports %.1f W", tc.name, tc.got, tc.want)
		}
	}
}

func TestPowerMonotoneInLoad(t *testing.T) {
	p := noThermal()
	for _, pol := range []sim.Policy{sim.NONAP, sim.IDLE} {
		prev := -1.0
		for _, busy := range []float64{5, 15, 30, 45, 60} {
			res := synthResult(pol, flat(1, busy), 62)
			s, err := Series(res, p)
			if err != nil {
				t.Fatal(err)
			}
			if pol == sim.NONAP {
				// NONAP converts spin to busy: small increase.
				if s[0] <= prev {
					t.Errorf("%v: power not increasing with load", pol)
				}
			} else if s[0] <= prev {
				t.Errorf("%v: power not increasing with load", pol)
			}
			prev = s[0]
		}
	}
}

func TestBusyClampedToWorkers(t *testing.T) {
	res := synthResult(sim.NONAP, flat(1, 80), 62) // impossible busy > workers
	s, err := Series(res, noThermal())
	if err != nil {
		t.Fatal(err)
	}
	p := noThermal()
	if s[0] > p.BaseW+62*p.BusyW+1e-9 {
		t.Errorf("power %g exceeds all-busy bound", s[0])
	}
}

func TestThermalFeedback(t *testing.T) {
	p := Default()
	series := flat(100, 26) // hot: well above the 18 W reference
	applyThermal(series, 1.0, p)
	if series[0] >= series[99] {
		t.Error("thermal feedback did not grow over time")
	}
	if series[99] <= 26 {
		t.Error("steady hot power gained no thermal excess")
	}
	cold := flat(100, 15) // below reference: no excess
	applyThermal(cold, 1.0, p)
	for i, v := range cold {
		if v != 15 {
			t.Fatalf("cold window %d changed to %g", i, v)
		}
	}
}

func TestGatingScheduleEquations(t *testing.T) {
	p := Default()
	active := []int{10, 30, 12, 12, 12, 12, 12}
	powered := GatingSchedule(active, p)
	// Subframe 0: window {0,1,2} -> max 30 -> ceil(30/8)*8 = 32.
	if powered[0] != 32 {
		t.Errorf("powered[0] = %d, want 32", powered[0])
	}
	// Subframe 3: window {1..5} -> max 30 -> 32.
	if powered[3] != 32 {
		t.Errorf("powered[3] = %d, want 32", powered[3])
	}
	// Subframe 6: window {4,5,6} -> max 12 -> 16.
	if powered[6] != 16 {
		t.Errorf("powered[6] = %d, want 16", powered[6])
	}
	// Never below one group or above TotalCores.
	low := GatingSchedule([]int{1, 1, 1}, p)
	for _, v := range low {
		if v != p.GateGroup {
			t.Errorf("minimum powered group = %d, want %d", v, p.GateGroup)
		}
	}
	high := GatingSchedule([]int{64, 64}, p)
	for _, v := range high {
		if v != 64 {
			t.Errorf("max powered = %d, want 64", v)
		}
	}
}

func TestGatingSavingsEquations(t *testing.T) {
	p := Default()
	powered := []int{32, 32, 48, 40}
	s := GatingSavings(powered, p)
	// Eq. 9: (64-32)*0.055 - 0 = 1.76.
	if math.Abs(s[0]-1.76) > 1e-9 {
		t.Errorf("savings[0] = %g, want 1.76", s[0])
	}
	// Eq. 8-9: (64-48)*0.055 - 16*0.015 = 0.88 - 0.24 = 0.64.
	if math.Abs(s[2]-0.64) > 1e-9 {
		t.Errorf("savings[2] = %g, want 0.64", s[2])
	}
	// Toggling down also pays the overhead: (64-40)*0.055 - 8*0.015 = 1.2.
	if math.Abs(s[3]-1.2) > 1e-9 {
		t.Errorf("savings[3] = %g, want 1.2", s[3])
	}
}

func TestApplyGatingReducesPower(t *testing.T) {
	res := synthResult(sim.NAPIDLE, flat(4, 20), 30)
	base, err := Series(res, noThermal())
	if err != nil {
		t.Fatal(err)
	}
	gated, err := ApplyGating(base, res, noThermal())
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if gated[i] >= base[i] {
			t.Errorf("window %d: gated %.2f not below %.2f", i, gated[i], base[i])
		}
	}
	// Savings magnitude: active 30 -> powered 32 -> (64-32)*0.055 = 1.76 W.
	if d := base[0] - gated[0]; math.Abs(d-1.76) > 1e-6 {
		t.Errorf("gating saved %.3f W, want 1.76", d)
	}
}

func TestApplyGatingLengthMismatch(t *testing.T) {
	res := synthResult(sim.NAPIDLE, flat(2, 10), 20)
	if _, err := ApplyGating(make([]float64, 5), res, Default()); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := Default()
	bad.IdleWakeDuty = 2
	if err := bad.Validate(); err == nil {
		t.Error("duty > 1 accepted")
	}
	bad = Default()
	bad.GateGroup = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero gate group accepted")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
}

func TestFromWorkerStats(t *testing.T) {
	p := noThermal()
	// Two workers: one fully busy, one fully napping, over 1 s.
	w, err := FromWorkerStats([]int64{1e9, 0}, []int64{0, 1e9}, []int64{0, 0}, 1e9, p)
	if err != nil {
		t.Fatal(err)
	}
	want := p.BaseW + p.BusyW + p.NapW + p.NapCheckDuty*(p.SpinW-p.NapW)
	if math.Abs(w-want) > 1e-9 {
		t.Errorf("power = %g, want %g", w, want)
	}
	// A worker parked for half the window costs half NapW, spinning the
	// other half half SpinW.
	wp, err := FromWorkerStats([]int64{0}, []int64{0}, []int64{5e8}, 1e9, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.BaseW + 0.5*p.NapW + 0.5*p.SpinW; math.Abs(wp-want) > 1e-9 {
		t.Errorf("half-parked power = %g, want %g", wp, want)
	}
	// A fully spinning worker costs SpinW.
	w2, err := FromWorkerStats([]int64{0}, []int64{0}, []int64{0}, 1e9, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w2-(p.BaseW+p.SpinW)) > 1e-9 {
		t.Errorf("spin-only power = %g", w2)
	}
	// Fractions clamp instead of exploding on clock skew.
	w3, err := FromWorkerStats([]int64{2e9}, []int64{0}, []int64{1e9}, 1e9, p)
	if err != nil {
		t.Fatal(err)
	}
	if w3 > p.BaseW+p.BusyW+1e-9 {
		t.Errorf("overlong busy not clamped: %g", w3)
	}
	if _, err := FromWorkerStats([]int64{1}, []int64{1, 2}, []int64{1}, 1e9, p); err == nil {
		t.Error("mismatched stats accepted")
	}
	if _, err := FromWorkerStats([]int64{1}, []int64{1}, nil, 1e9, p); err == nil {
		t.Error("missing park stats accepted")
	}
	if _, err := FromWorkerStats(nil, nil, nil, 0, p); err == nil {
		t.Error("zero wall accepted")
	}
}
