package sched

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ltephy/internal/obs"
	"ltephy/internal/params"
	"ltephy/internal/rng"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

// DispatcherConfig configures the maintenance thread.
type DispatcherConfig struct {
	// Delta is the dispatch period. The paper dispatches a subframe every
	// DELTA ms, configurable so hardware that cannot sustain 1 ms still
	// runs (the TILEPro64 runs at 5 ms).
	Delta time.Duration
	// TX configures input signal generation.
	TX tx.Config
	// CacheSets is how many distinct input data realisations are kept per
	// parameter combination, mirroring the paper's reuse of (by default)
	// ten pre-generated input data sets.
	CacheSets int
	// Seed drives input data generation.
	Seed uint64
	// DeadlineBudget is the per-subframe completion budget charged by the
	// pool's deadline accounting, measured from dispatch. Defaults to
	// Delta: a subframe should complete before the next one arrives.
	DeadlineBudget time.Duration
	// Clock paces Run and stamps dispatches. Nil defaults to
	// obs.SystemClock (real-time pacing); obs.UnpacedClock runs the loop
	// flat out for simulation and tests. The scheduler itself never reads
	// the wall clock — the determinism analyzer enforces that — so all
	// time flows through this injection point.
	Clock obs.Clock
}

// DefaultDispatcherConfig mirrors the paper's evaluation setup.
func DefaultDispatcherConfig() DispatcherConfig {
	return DispatcherConfig{
		Delta:     5 * time.Millisecond,
		TX:        tx.DefaultConfig(),
		CacheSets: 10,
		Seed:      1,
	}
}

// dataKey identifies input data reusable across subframes: everything in
// UserParams except the user's slot index.
type dataKey struct {
	prb, layers int
	mod         int
}

// setKey identifies one cached input realisation: a parameter combination
// plus the data-set index within the CacheSets rotation.
type setKey struct {
	dataKey
	set int
}

// Dispatcher is the maintenance thread: it turns parameter-model output
// into subframes (reusing cached input data, Section IV-B1) and dispatches
// them to a pool on a fixed period.
//
// The input realisation for a user is a pure function of its parameters,
// the dispatcher seed, and (seq+slot) mod CacheSets — never of generation
// order — so the serial reference and the parallel runtime presented with
// the same trace see bit-identical data (Section IV-D's precondition).
// The cache is pure memoisation.
type Dispatcher struct {
	cfg   DispatcherConfig
	mu    sync.Mutex
	cache map[setKey]*uplink.UserData
}

// NewDispatcher returns a dispatcher with an empty data cache.
func NewDispatcher(cfg DispatcherConfig) *Dispatcher {
	if cfg.CacheSets < 1 {
		cfg.CacheSets = 1
	}
	return &Dispatcher{cfg: cfg, cache: make(map[setKey]*uplink.UserData)}
}

// Subframe materialises input data for the given scheduling decision.
// The receiver never mutates UserData, so sharing one realisation across
// in-flight subframes is safe (the paper needed unique buffers only
// because its kernels work in place).
func (d *Dispatcher) Subframe(seq int64, users []uplink.UserParams) (*uplink.Subframe, error) {
	sf := &uplink.Subframe{Seq: seq}
	for slot, p := range users {
		u, err := d.userData(seq, slot, p)
		if err != nil {
			return nil, fmt.Errorf("sched: subframe %d: %w", seq, err)
		}
		sf.Users = append(sf.Users, u)
	}
	return sf, nil
}

func (d *Dispatcher) userData(seq int64, slot int, p uplink.UserParams) (*uplink.UserData, error) {
	key := setKey{
		dataKey: dataKey{p.PRB, p.Layers, int(p.Mod)},
		set:     int((seq + int64(slot)) % int64(d.cfg.CacheSets)),
	}
	d.mu.Lock()
	u, ok := d.cache[key]
	d.mu.Unlock()
	if !ok {
		// Seed derived from the key alone: generation order cannot change
		// the realisation.
		seed := d.cfg.Seed
		for _, v := range []uint64{uint64(key.prb), uint64(key.layers), uint64(key.mod), uint64(key.set)} {
			seed = (seed ^ v) * 0x9E3779B97F4A7C15
		}
		var err error
		u, err = tx.Generate(d.cfg.TX, p, rng.New(seed))
		if err != nil {
			return nil, err
		}
		d.mu.Lock()
		if prev, ok := d.cache[key]; ok {
			u = prev // another goroutine won the race; keep one canonical copy
		} else {
			d.cache[key] = u
		}
		d.mu.Unlock()
	}
	// The cached realisation was generated for some user slot; results
	// carry the scheduled ID, so hand out a shallow copy with it set.
	if u.Params.ID != p.ID {
		clone := *u
		clone.Params.ID = p.ID
		return &clone, nil
	}
	return u, nil
}

// Pregenerate warms the cache for every realisation a trace uses, so a
// timed run measures processing rather than signal synthesis.
func (d *Dispatcher) Pregenerate(t *params.Trace) error {
	for seq, users := range t.Subframes {
		for slot, p := range users {
			if _, err := d.userData(int64(seq), slot, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunOptions controls a timed dispatch run.
type RunOptions struct {
	// Subframes is the number of subframes to dispatch.
	Subframes int
	// OnDispatch, when non-nil, is invoked just before each subframe is
	// submitted — the hook the power-aware resource manager uses to apply
	// Eq. 5 (estimate workload, set the active-core mask).
	OnDispatch func(seq int64, sf *uplink.Subframe)
	// Estimate, when non-nil and telemetry is enabled, supplies each
	// subframe's estimated activity (Eq. 4). The dispatcher pairs it with
	// the activity measured over that subframe's dispatch period, feeding
	// the registry's online estimator-error tracker (live Fig. 12).
	Estimate func(sf *uplink.Subframe) float64
}

// Run dispatches subframes from the model to the pool every Delta,
// mirroring the maintenance thread's signal-alarm loop. It returns the
// wall-clock duration of the run after the pool drains.
//
// When the pool's telemetry is enabled, each dispatch is stamped for
// deadline accounting and each period's measured activity (Eq. 2 over
// one Delta window) is paired with the subframe's estimate. The
// sampling reuses two stat buffers for the whole run — no per-subframe
// allocation.
//
// Pacing and elapsed time come from the injected cfg.Clock (default
// obs.SystemClock), never from direct wall-clock reads: the loop passes
// the determinism analyzer unannotated, and an obs.UnpacedClock makes the
// identical loop pace-free for simulation and tests.
func (d *Dispatcher) Run(pool *Pool, m params.Model, opts RunOptions) (time.Duration, error) {
	if opts.Subframes <= 0 {
		return 0, fmt.Errorf("sched: Run needs a positive subframe count")
	}
	clk := d.cfg.Clock
	if clk == nil {
		clk = obs.SystemClock{}
	}
	tel := pool.Telemetry()
	budget := d.cfg.DeadlineBudget
	if budget <= 0 {
		budget = d.cfg.Delta
	}
	tel.Deadline().SetBudget(budget.Nanoseconds())
	var before, after []WorkerStats
	if tel.Enabled() {
		before = pool.StatsInto(make([]WorkerStats, pool.Workers()))
		after = make([]WorkerStats, pool.Workers())
	}
	start := clk.Now()
	tick, release := clk.Tick(d.cfg.Delta)
	defer release()
	for seq := int64(0); seq < int64(opts.Subframes); seq++ {
		sf, err := d.Subframe(seq, m.Next())
		if err != nil {
			return 0, err
		}
		if opts.OnDispatch != nil {
			opts.OnDispatch(seq, sf)
		}
		if tel.Enabled() {
			tel.Deadline().Dispatch(seq, clk.Now())
			if opts.Estimate != nil {
				tel.Estimator().RecordEstimate(seq, opts.Estimate(sf))
			}
		}
		pool.SubmitSubframe(sf)
		<-tick
		if tel.Enabled() {
			// Measured activity of the period that just elapsed — the window
			// subframe seq was dispatched into.
			after = pool.StatsInto(after)
			var busy int64
			for i := range after {
				busy += after[i].BusyNanos - before[i].BusyNanos
			}
			measured := float64(busy) /
				(float64(pool.Workers()) * float64(d.cfg.Delta.Nanoseconds()))
			tel.Estimator().RecordMeasured(seq, measured)
			before, after = after, before
		}
	}
	pool.Drain()
	return time.Duration(clk.Now() - start), nil
}

// Collector gathers results keyed by subframe for verification.
type Collector struct {
	mu      sync.Mutex
	results map[int64][]uplink.UserResult
}

// NewCollector returns an empty collector; pass its Add as Config.OnResult.
func NewCollector() *Collector {
	return &Collector{results: make(map[int64][]uplink.UserResult)}
}

// Add records one result; safe for concurrent use. It keeps a copy of the
// borrowed Bits and drops the borrowed SoftBits.
func (c *Collector) Add(r uplink.UserResult) {
	r.Bits = append([]uint8(nil), r.Bits...)
	r.SoftBits = nil
	c.mu.Lock()
	c.results[r.Seq] = append(c.results[r.Seq], r)
	c.mu.Unlock()
}

// Len returns the total number of results collected.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, rs := range c.results {
		n += len(rs)
	}
	return n
}

// Sorted returns all results ordered by (subframe, user) — a canonical
// order for comparing against the serial reference.
func (c *Collector) Sorted() []uplink.UserResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []uplink.UserResult
	for _, rs := range c.results {
		out = append(out, rs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].UserID < out[j].UserID
	})
	return out
}

// Verify processes a recorded trace both serially and in parallel and
// reports the first mismatch — the paper's Section IV-D validation. The
// same cached input data feeds both paths.
func Verify(poolCfg Config, dispCfg DispatcherConfig, trace *params.Trace) error {
	d := NewDispatcher(dispCfg)
	if err := d.Pregenerate(trace); err != nil {
		return err
	}

	// Serial reference.
	trace.Reset()
	var want []uplink.UserResult
	for seq := int64(0); seq < int64(len(trace.Subframes)); seq++ {
		sf, err := d.Subframe(seq, trace.Next())
		if err != nil {
			return err
		}
		rs, err := uplink.ProcessSubframe(poolCfg.Receiver, sf)
		if err != nil {
			return err
		}
		want = append(want, rs...)
	}

	// Parallel run over the identical subframes.
	col := NewCollector()
	poolCfg.OnResult = col.Add
	pool, err := NewPool(poolCfg)
	if err != nil {
		return err
	}
	trace.Reset()
	for seq := int64(0); seq < int64(len(trace.Subframes)); seq++ {
		sf, err := d.Subframe(seq, trace.Next())
		if err != nil {
			return err
		}
		pool.SubmitSubframe(sf)
	}
	pool.Close()

	got := col.Sorted()
	if len(got) != len(want) {
		return fmt.Errorf("sched: verify: %d parallel results vs %d serial", len(got), len(want))
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			return fmt.Errorf("sched: verify: subframe %d user %d differs between serial and parallel",
				want[i].Seq, want[i].UserID)
		}
	}
	return nil
}

// DriveActiveWorkers adapts a per-subframe active-core estimate (Eq. 5) to
// a dispatcher hook that applies the proactive nap mask to the pool before
// each subframe is submitted — the native-runtime counterpart of the
// simulator's NAP policy.
func DriveActiveWorkers(pool *Pool, activeCores func([]uplink.UserParams) int) func(int64, *uplink.Subframe) {
	// The hook runs only on the dispatcher goroutine, so one reusable
	// parameter buffer suffices — no per-subframe allocation after the
	// first few subframes grow it to the trace's peak user count.
	var ps []uplink.UserParams
	return func(_ int64, sf *uplink.Subframe) {
		ps = ps[:0]
		for _, u := range sf.Users {
			ps = append(ps, u.Params)
		}
		pool.SetActiveWorkers(activeCores(ps))
	}
}
