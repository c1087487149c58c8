package sched

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"ltephy/internal/phy/modulation"
	"ltephy/internal/phy/turbo"
	"ltephy/internal/uplink"
)

// TestPoolSteadyStateAllocs is the task path's allocation gate. After
// warm-up, a 3-user subframe through SubmitSubframeFin allocates nothing,
// on one worker and on two: each worker reuses its job and the job's
// payload storage, and spawning stage and window tasks, joining them,
// waking and completing allocate nothing. With full turbo on two workers
// the subframe takes the decoder's window fan-out, and a count of the
// fan-outs taken pins that the case still covers it.
func TestPoolSteadyStateAllocs(t *testing.T) {
	users := []uplink.UserParams{
		{ID: 0, PRB: 8, Layers: 2, Mod: modulation.QAM16},
		{ID: 1, PRB: 4, Layers: 1, Mod: modulation.QPSK},
		{ID: 2, PRB: 6, Layers: 4, Mod: modulation.QAM64},
	}
	const (
		perUser   = 0
		perFanout = 0
	)
	for _, full := range []bool{false, true} {
		rc, us := uplink.DefaultConfig(), users
		if full {
			rc = turboReceiver()
			us = append([]uplink.UserParams{turboMaxUser}, users[1:]...)
		}
		d := NewDispatcher(turboDispatcherConfig(rc))
		sf, err := d.Subframe(0, us)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("turbo=%v/workers=%d", full, workers), func(t *testing.T) {
				cfg := DefaultPoolConfig()
				cfg.Workers = workers
				cfg.Receiver = rc
				pool, err := newPool(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var fanouts atomic.Int64
				for _, w := range pool.workers {
					w.fanout = turbo.NewFanout(func(n int, fn func(int)) {
						fanouts.Add(1)
						w.runWindows(n, fn)
					})
				}
				pool.start()
				defer pool.Close()
				fired := make(chan struct{}, 1)
				fin := NewSubframeFin(func() { fired <- struct{}{} })
				run := func() {
					pool.SubmitSubframeFin(sf, fin)
					<-fired
				}
				// Warm-up sizes the arenas, deques, the global queue and the
				// shared caches (FFT plans, formats, interleavers).
				for range 3 {
					run()
				}
				fanouts.Store(0)
				const runs = 20
				got := testing.AllocsPerRun(runs, run)
				// AllocsPerRun makes one extra warm-up call.
				taken := float64(fanouts.Load()) / (runs + 1)
				if full && workers > 1 && taken == 0 {
					t.Fatal("no window fan-out taken; the turbo case no longer covers runWindows")
				}
				want := float64(perUser*len(us)) + perFanout*taken
				if got != want {
					t.Errorf("%.2f allocations per subframe, want %.2f", got, want)
				}
			})
		}
	}
}

// BenchmarkTaskOverhead measures what the pool charges per task on top of
// the task's own work, with an empty window task: push, then pop by the
// owner (pop) or steal by a second worker (steal), then runTask — two
// clock reads, the stats counters and the join decrement. ns/op is per
// task; internal/cost.DefaultTaskOverhead cites the figures.
func BenchmarkTaskOverhead(b *testing.B) {
	cfg := DefaultPoolConfig()
	cfg.Workers = 2
	pool, err := newPool(cfg) // never started: the benchmark drives the workers
	if err != nil {
		b.Fatal(err)
	}
	owner, thief := pool.workers[0], pool.workers[1]
	noop := func(int) {}

	b.Run("pop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			owner.join.Store(1)
			owner.local.push(Task{win: noop, rem: &owner.join})
			t, _ := owner.local.pop()
			owner.runTask(t)
		}
	})

	b.Run("steal", func(b *testing.B) {
		if runtime.GOMAXPROCS(0) < 2 {
			b.Skip("needs GOMAXPROCS >= 2: with one P a steal is a scheduler hand-off")
		}
		b.ReportAllocs()
		var stop atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			for !stop.Load() {
				if t, ok := thief.trySteal(); ok {
					thief.runTask(t)
				}
			}
		}()
		const batch = 16
		for i := 0; i < b.N; i += batch {
			n := min(batch, b.N-i)
			owner.join.Store(int64(n))
			for k := 0; k < n; k++ {
				owner.local.push(Task{win: noop, rem: &owner.join})
			}
			for owner.join.Load() != 0 {
				runtime.Gosched()
			}
		}
		stop.Store(true)
		<-done
	})
}
