package sched

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ltephy/internal/obs"
	"ltephy/internal/params"
	"ltephy/internal/phy/modulation"
	"ltephy/internal/phy/workspace"
	"ltephy/internal/power"
	"ltephy/internal/uplink"
)

func TestDequeLIFOAndFIFO(t *testing.T) {
	var d deque
	order := []int{}
	for i := 0; i < 5; i++ {
		i := i
		d.push(Task{fn: func(*workspace.Arena) { order = append(order, i) }})
	}
	// Owner pops newest first.
	ta, _ := d.pop()
	ta.fn(nil)
	// Thief steals oldest first.
	tb, _ := d.steal()
	tb.fn(nil)
	if order[0] != 4 || order[1] != 0 {
		t.Errorf("pop/steal order = %v, want [4 0]", order)
	}
	if d.size() != 3 {
		t.Errorf("size = %d, want 3", d.size())
	}
}

func TestDequeEmpty(t *testing.T) {
	var d deque
	if _, ok := d.pop(); ok {
		t.Error("pop on empty deque succeeded")
	}
	if _, ok := d.steal(); ok {
		t.Error("steal on empty deque succeeded")
	}
}

func TestDequeConcurrentStealing(t *testing.T) {
	var d deque
	const n = 10000
	var ran atomic.Int64
	for i := 0; i < n; i++ {
		d.push(Task{fn: func(*workspace.Arena) { ran.Add(1) }})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(owner bool) {
			defer wg.Done()
			for {
				var task Task
				var ok bool
				if owner {
					task, ok = d.pop()
				} else {
					task, ok = d.steal()
				}
				if !ok {
					return
				}
				task.fn(nil)
			}
		}(g == 0)
	}
	wg.Wait()
	if ran.Load() != n {
		t.Errorf("ran %d tasks, want %d (lost or duplicated)", ran.Load(), n)
	}
}

func TestDequeCompaction(t *testing.T) {
	var d deque
	for round := 0; round < 10; round++ {
		for i := 0; i < 200; i++ {
			d.push(Task{fn: func(*workspace.Arena) {}})
		}
		for i := 0; i < 200; i++ {
			if _, ok := d.steal(); !ok {
				t.Fatal("steal failed")
			}
		}
	}
	d.mu.Lock()
	if cap(d.tasks) > 1024 {
		t.Errorf("backing array grew to %d despite compaction", cap(d.tasks))
	}
	d.mu.Unlock()
}

func TestUserQueueFIFO(t *testing.T) {
	var q userQueue
	for i := int64(0); i < 5; i++ {
		q.enqueue(queuedUser{seq: i})
	}
	for i := int64(0); i < 5; i++ {
		u, ok := q.dequeue()
		if !ok || u.seq != i {
			t.Fatalf("dequeue %d: got %+v ok=%v", i, u, ok)
		}
	}
	if _, ok := q.dequeue(); ok {
		t.Error("dequeue on empty queue succeeded")
	}
}

func smallTrace(t *testing.T, n int) *params.Trace {
	t.Helper()
	// A compact trace: small PRBs keep test DSP cheap.
	var sfs [][]uplink.UserParams
	mods := []modulation.Scheme{modulation.QPSK, modulation.QAM16, modulation.QAM64}
	for i := 0; i < n; i++ {
		var users []uplink.UserParams
		for u := 0; u < 1+i%3; u++ {
			users = append(users, uplink.UserParams{
				ID:     u,
				PRB:    2 + (i+u)%4,
				Layers: 1 + (i+u)%2,
				Mod:    mods[(i+u)%3],
			})
		}
		sfs = append(sfs, users)
	}
	return &params.Trace{Subframes: sfs}
}

func testDispatcherConfig() DispatcherConfig {
	cfg := DefaultDispatcherConfig()
	cfg.Delta = time.Millisecond
	return cfg
}

// TestVerifySerialVsParallel is the paper's Section IV-D check: the
// parallel runtime must produce bit-identical results to the serial
// reference over the same subframe trace.
func TestVerifySerialVsParallel(t *testing.T) {
	poolCfg := DefaultPoolConfig()
	poolCfg.Workers = 8
	if err := Verify(poolCfg, testDispatcherConfig(), smallTrace(t, 30)); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyWithNapOnIdle(t *testing.T) {
	poolCfg := DefaultPoolConfig()
	poolCfg.Workers = 6
	poolCfg.NapOnIdle = true
	poolCfg.NapCheckPeriod = 50 * time.Microsecond
	if err := Verify(poolCfg, testDispatcherConfig(), smallTrace(t, 20)); err != nil {
		t.Fatal(err)
	}
}

func TestVerifySingleWorker(t *testing.T) {
	poolCfg := DefaultPoolConfig()
	poolCfg.Workers = 1
	if err := Verify(poolCfg, testDispatcherConfig(), smallTrace(t, 10)); err != nil {
		t.Fatal(err)
	}
}

func TestPoolProcessSubframeBlocks(t *testing.T) {
	d := NewDispatcher(testDispatcherConfig())
	trace := smallTrace(t, 1)
	sf, err := d.Subframe(0, trace.Subframes[0])
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	cfg := DefaultPoolConfig()
	cfg.Workers = 4
	cfg.OnResult = col.Add
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.ProcessSubframe(sf)
	if col.Len() != len(sf.Users) {
		t.Errorf("got %d results after ProcessSubframe, want %d", col.Len(), len(sf.Users))
	}
}

func TestSetActiveWorkersMask(t *testing.T) {
	cfg := DefaultPoolConfig()
	cfg.Workers = 4
	cfg.NapCheckPeriod = 100 * time.Microsecond
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.SetActiveWorkers(1)
	if pool.ActiveWorkers() != 1 {
		t.Fatalf("ActiveWorkers = %d", pool.ActiveWorkers())
	}
	// Give the deactivated workers time to start napping, then confirm nap
	// time accumulates on them and work still completes on the active one.
	time.Sleep(5 * time.Millisecond)
	d := NewDispatcher(testDispatcherConfig())
	trace := smallTrace(t, 4)
	for seq, users := range trace.Subframes {
		sf, err := d.Subframe(int64(seq), users)
		if err != nil {
			t.Fatal(err)
		}
		pool.ProcessSubframe(sf)
	}
	stats := pool.Stats()
	if stats[3].NapNanos == 0 {
		t.Error("masked worker accumulated no nap time")
	}
	// Clamp behaviour.
	pool.SetActiveWorkers(0)
	if pool.ActiveWorkers() != 1 {
		t.Errorf("SetActiveWorkers(0) gave %d, want clamp to 1", pool.ActiveWorkers())
	}
	pool.SetActiveWorkers(99)
	if pool.ActiveWorkers() != 4 {
		t.Errorf("SetActiveWorkers(99) gave %d, want clamp to 4", pool.ActiveWorkers())
	}
}

// stealGate makes TestWorkIsActuallyDistributed independent of the host's
// thread scheduling. Wrapped round every worker's deque, it holds the owner's
// pop of its own task (asleep, so the P is free) until thieves have taken
// need tasks in all: whether a second worker gets to run during one ~3 ms
// subframe then no longer depends on a loaded 2-vCPU box running two of the
// process's threads inside those 3 ms. The wait is bounded, so a pool that
// does not steal still finishes the subframe — on one worker, which is what
// the test reports.
type stealGate struct {
	steals atomic.Int64 // successful steals, all deques
	need   atomic.Int64 // an owner's pop returns once steals reaches this
}

type gatedDeque struct {
	taskDeque
	g *stealGate
}

func (d gatedDeque) pop() (Task, bool) {
	t, ok := d.taskDeque.pop()
	if ok {
		for start := time.Now(); d.g.steals.Load() < d.g.need.Load() && time.Since(start) < 10*time.Second; {
			time.Sleep(50 * time.Microsecond)
		}
	}
	return t, ok
}

func (d gatedDeque) steal() (Task, bool) {
	t, ok := d.taskDeque.steal()
	if ok {
		d.g.steals.Add(1)
	}
	return t, ok
}

func TestWorkIsActuallyDistributed(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// On a single-P runtime the user thread drains its own deque before
		// any other worker goroutine is scheduled, so steals legitimately
		// may never happen; distribution needs real parallelism.
		t.Skip("needs GOMAXPROCS >= 2 to observe stealing")
	}
	cfg := DefaultPoolConfig()
	cfg.Workers = 4
	pool, err := newPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate := &stealGate{}
	for _, w := range pool.workers {
		w.local = gatedDeque{w.local, gate}
	}
	pool.start()
	defer pool.Close()
	d := NewDispatcher(testDispatcherConfig())
	// One big user: its 16 chanest + 48 data tasks should spread.
	sf, err := d.Subframe(0, []uplink.UserParams{{ID: 0, PRB: 40, Layers: 4, Mod: modulation.QAM64}})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the workers with one throw-away subframe (gate open), then assert
	// on the next subframe's Stats delta, with the user thread's first task
	// held until another worker has stolen one.
	pool.ProcessSubframe(sf)
	before := pool.Stats()
	gate.need.Store(gate.steals.Load() + 1)
	pool.ProcessSubframe(sf)
	workersWithTasks := 0
	var totalTasks int64
	for i, s := range pool.Stats() {
		ran := s.TasksRun - before[i].TasksRun
		if ran > 0 {
			workersWithTasks++
		}
		totalTasks += ran
	}
	if totalTasks != 16+48 {
		t.Errorf("total tasks run = %d, want 64 (16 chanest + 48 data)", totalTasks)
	}
	if workersWithTasks < 2 {
		t.Errorf("only %d workers ran tasks; stealing not happening", workersWithTasks)
	}
}

func TestActivityMetric(t *testing.T) {
	before := []WorkerStats{{BusyNanos: 0}, {BusyNanos: 0}}
	after := []WorkerStats{{BusyNanos: 5e8}, {BusyNanos: 5e8}}
	got := Activity(before, after, time.Second)
	if got < 0.49 || got > 0.51 {
		t.Errorf("Activity = %g, want 0.5", got)
	}
}

func TestDispatcherCacheReuse(t *testing.T) {
	cfg := testDispatcherConfig()
	cfg.CacheSets = 2
	d := NewDispatcher(cfg)
	p := uplink.UserParams{ID: 0, PRB: 3, Layers: 1, Mod: modulation.QPSK}
	seen := map[*uplink.UserData]int{}
	for i := 0; i < 6; i++ {
		sf, err := d.Subframe(int64(i), []uplink.UserParams{p})
		if err != nil {
			t.Fatal(err)
		}
		seen[sf.Users[0]]++
	}
	// Two generated sets, then round-robin reuse: at most 2 distinct
	// pointers should appear more than... note reuse may clone for ID, so
	// count distinct payload slices instead.
	payloads := map[*uint8]int{}
	for u := range seen {
		payloads[&u.Payload[0]]++
	}
	if len(payloads) != cfg.CacheSets {
		t.Errorf("distinct data realisations = %d, want %d", len(payloads), cfg.CacheSets)
	}
}

func TestDispatcherRunPaced(t *testing.T) {
	cfg := testDispatcherConfig()
	cfg.Delta = 2 * time.Millisecond
	d := NewDispatcher(cfg)
	trace := smallTrace(t, 10)
	if err := d.Pregenerate(trace); err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	poolCfg := DefaultPoolConfig()
	poolCfg.Workers = 4
	poolCfg.OnResult = col.Add
	pool, err := NewPool(poolCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	trace.Reset()
	var dispatched atomic.Int64
	wall, err := d.Run(pool, trace, RunOptions{
		Subframes:  10,
		OnDispatch: func(seq int64, sf *uplink.Subframe) { dispatched.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if dispatched.Load() != 10 {
		t.Errorf("OnDispatch fired %d times, want 10", dispatched.Load())
	}
	if wall < 18*time.Millisecond {
		t.Errorf("run finished in %v; pacing at 2 ms x 10 subframes not enforced", wall)
	}
	want := 0
	for _, users := range trace.Subframes {
		want += len(users)
	}
	if col.Len() != want {
		t.Errorf("collected %d results, want %d", col.Len(), want)
	}
}

// TestDispatcherRunUnpaced pins the injected-clock contract: with
// obs.UnpacedClock the identical dispatch loop runs pace-free — far
// faster than Subframes x Delta — while still delivering every result.
func TestDispatcherRunUnpaced(t *testing.T) {
	cfg := testDispatcherConfig()
	cfg.Delta = 50 * time.Millisecond // would pace a 10-subframe run to 500 ms
	cfg.Clock = obs.UnpacedClock{}
	d := NewDispatcher(cfg)
	trace := smallTrace(t, 10)
	if err := d.Pregenerate(trace); err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	poolCfg := DefaultPoolConfig()
	poolCfg.Workers = 4
	poolCfg.OnResult = col.Add
	pool, err := NewPool(poolCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	trace.Reset()
	wall, err := d.Run(pool, trace, RunOptions{Subframes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if wall >= 250*time.Millisecond {
		t.Errorf("unpaced run took %v; pacing was not removed (10 x 50 ms budget)", wall)
	}
	want := 0
	for _, users := range trace.Subframes {
		want += len(users)
	}
	if col.Len() != want {
		t.Errorf("collected %d results, want %d", col.Len(), want)
	}
}

func TestPoolRejectsBadConfig(t *testing.T) {
	cfg := DefaultPoolConfig()
	cfg.Receiver.Antennas = 0
	if _, err := NewPool(cfg); err == nil {
		t.Error("invalid receiver config accepted")
	}
}

func TestCollectorSorted(t *testing.T) {
	c := NewCollector()
	c.Add(uplink.UserResult{Seq: 2, UserID: 0})
	c.Add(uplink.UserResult{Seq: 0, UserID: 1})
	c.Add(uplink.UserResult{Seq: 0, UserID: 0})
	got := c.Sorted()
	if got[0].Seq != 0 || got[0].UserID != 0 || got[1].UserID != 1 || got[2].Seq != 2 {
		t.Errorf("sorted order wrong: %+v", got)
	}
}

func BenchmarkPoolThroughput(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := DefaultPoolConfig()
		cfg.Workers = workers
		pool, err := NewPool(cfg)
		if err != nil {
			b.Fatal(err)
		}
		d := NewDispatcher(DefaultDispatcherConfig())
		sf, err := d.Subframe(0, []uplink.UserParams{
			{ID: 0, PRB: 20, Layers: 2, Mod: modulation.QAM16},
			{ID: 1, PRB: 20, Layers: 2, Mod: modulation.QAM16},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("workers"+string(rune('0'+workers)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pool.ProcessSubframe(sf)
			}
		})
		pool.Close()
	}
}

// TestDriveActiveWorkers: an estimator hook masks workers per subframe on
// the native pool; processing still completes and masked workers nap.
func TestDriveActiveWorkers(t *testing.T) {
	cfg := DefaultPoolConfig()
	cfg.Workers = 4
	cfg.NapCheckPeriod = 50 * time.Microsecond
	col := NewCollector()
	cfg.OnResult = col.Add
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// A fake estimator: tiny subframes get 1 core, others all 4.
	hook := DriveActiveWorkers(pool, func(users []uplink.UserParams) int {
		total := 0
		for _, p := range users {
			total += p.PRB
		}
		if total <= 4 {
			return 1
		}
		return 4
	})

	d := NewDispatcher(testDispatcherConfig())
	trace := smallTrace(t, 12)
	if err := d.Pregenerate(trace); err != nil {
		t.Fatal(err)
	}
	trace.Reset()
	masks := []int{}
	_, err = d.Run(pool, trace, RunOptions{
		Subframes: 12,
		OnDispatch: func(seq int64, sf *uplink.Subframe) {
			hook(seq, sf)
			masks = append(masks, pool.ActiveWorkers())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, users := range trace.Subframes {
		want += len(users)
	}
	if col.Len() != want {
		t.Errorf("collected %d results, want %d", col.Len(), want)
	}
	sawLow, sawHigh := false, false
	for _, m := range masks {
		if m == 1 {
			sawLow = true
		}
		if m == 4 {
			sawHigh = true
		}
	}
	if !sawLow || !sawHigh {
		t.Errorf("mask never varied: %v", masks)
	}
}

// TestNativeNapPowerSavings is the paper's IDLE-vs-NONAP comparison run on
// the real goroutine runtime: with long idle gaps between subframes,
// nap-on-idle workers accumulate nap time and the as-if TILEPro64 power
// estimate drops well below the always-spinning configuration.
func TestNativeNapPowerSavings(t *testing.T) {
	measure := func(napOnIdle bool) float64 {
		cfg := DefaultPoolConfig()
		cfg.Workers = 4
		cfg.NapOnIdle = napOnIdle
		cfg.NapCheckPeriod = 200 * time.Microsecond
		pool, err := NewPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()

		dispCfg := testDispatcherConfig()
		dispCfg.Delta = 3 * time.Millisecond // tiny users + long gaps = mostly idle
		d := NewDispatcher(dispCfg)
		trace := smallTrace(t, 15)
		if err := d.Pregenerate(trace); err != nil {
			t.Fatal(err)
		}
		trace.Reset()

		before := pool.Stats()
		wall, err := d.Run(pool, trace, RunOptions{Subframes: 15})
		if err != nil {
			t.Fatal(err)
		}
		after := pool.Stats()

		busy := make([]int64, len(after))
		nap := make([]int64, len(after))
		for i := range after {
			busy[i] = after[i].BusyNanos - before[i].BusyNanos
			nap[i] = after[i].NapNanos - before[i].NapNanos
		}
		w, err := power.FromWorkerStats(busy, nap, wall.Nanoseconds(), power.Default())
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	spin := measure(false)
	napping := measure(true)
	if napping >= spin {
		t.Errorf("nap-on-idle as-if power %.2f W not below spinning %.2f W", napping, spin)
	}
	// With ~4 mostly idle cores the gap should be a visible fraction of the
	// 4 * (SpinW - napW) ~ 0.6 W ceiling.
	if spin-napping < 0.1 {
		t.Errorf("nap saving only %.3f W; idle detection not engaging", spin-napping)
	}
}

// TestNativeWorkloadScaling is Fig. 11 in miniature on the real runtime:
// measured busy time grows roughly linearly with the PRB allocation —
// the property the paper's workload estimator is built on, here verified
// against actual DSP execution rather than the simulator.
//
// The statistic is the minimum busy time over 12 subframes, not their
// mean. The claim is about work — the instructions a subframe of that size
// costs — and BusyNanos is wall time inside tasks, so anything the host
// does to a worker mid-task (a preemption, a neighbour's cache traffic)
// only ever adds to it. One preemption inside a ~100 us subframe multiplies
// a 12-subframe mean several times over; the fastest of the 12 is the one
// the host left alone, and it is the work.
func TestNativeWorkloadScaling(t *testing.T) {
	busyFor := func(prb int) int64 {
		cfg := DefaultPoolConfig()
		cfg.Workers = 2
		pool, err := NewPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		d := NewDispatcher(testDispatcherConfig())
		p := uplink.UserParams{ID: 0, PRB: prb, Layers: 2, Mod: modulation.QAM16}
		sf, err := d.Subframe(0, []uplink.UserParams{p})
		if err != nil {
			t.Fatal(err)
		}
		// Warm caches (FFT plans, interleavers) before measuring.
		pool.ProcessSubframe(sf)
		least := int64(math.MaxInt64)
		for rep := 0; rep < 12; rep++ {
			before := pool.Stats()
			pool.ProcessSubframe(sf)
			var busy int64
			for i, after := range pool.Stats() {
				busy += after.BusyNanos - before[i].BusyNanos
			}
			least = min(least, busy)
		}
		return least
	}
	small := busyFor(4)
	large := busyFor(16)
	if small <= 0 || large <= 0 {
		t.Fatalf("busy times not positive: %d, %d", small, large)
	}
	ratio := float64(large) / float64(small)
	// 4x the PRBs: expect roughly 4x the work (FFT log factors and fixed
	// overheads bend it).
	if ratio < 2 || ratio > 8 {
		t.Errorf("least busy(16 PRB)/busy(4 PRB) = %.2f, want roughly linear (~4)", ratio)
	}
}

// TestVerifyArenaPathAllVariants pins the per-worker arena refactor
// (ISSUE 1): the same trace through the serial reference (one shared
// arena) and the work-stealing pool (one arena per worker, tasks stealing
// across arenas) must stay bit-identical, across every estimator/combiner
// stage the registries offer and the full turbo backend. Run under -race
// this also proves no two workers ever touch the same arena.
func TestVerifyArenaPathAllVariants(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*uplink.ReceiverConfig)
	}{
		{"mmse", func(rc *uplink.ReceiverConfig) {}},
		{"zf", func(rc *uplink.ReceiverConfig) { rc.Combiner = uplink.CombinerZF }},
		{"mrc", func(rc *uplink.ReceiverConfig) { rc.Combiner = uplink.CombinerMRC }},
		{"irc-ls", func(rc *uplink.ReceiverConfig) {
			rc.Combiner = uplink.CombinerIRC
			rc.ChanEst = uplink.ChanEstLS
		}},
		{"estnoise-cfo-scramble", func(rc *uplink.ReceiverConfig) {
			rc.EstimateNoise = true
			rc.CorrectCFO = true
			rc.Scramble = true
		}},
		{"turbofull-rm", func(rc *uplink.ReceiverConfig) {
			rc.Turbo = uplink.TurboFull
			rc.CodeRate = 0.5
			rc.TurboIterations = 4
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			poolCfg := DefaultPoolConfig()
			poolCfg.Workers = 8
			v.mut(&poolCfg.Receiver)
			if err := Verify(poolCfg, testDispatcherConfig(), smallTrace(t, 12)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
