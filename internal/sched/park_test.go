package sched

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ltephy/internal/phy/modulation"
	"ltephy/internal/rng"
	"ltephy/internal/uplink"
)

// withWatchdog runs fn and fails the test with a full goroutine dump if it
// has not returned within limit — the shape a lost wake-up takes is a
// worker parked on the wake channel while work waits, and the dump shows
// exactly who is parked and who is waiting on whom.
func withWatchdog(t *testing.T, limit time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(limit):
		var buf bytes.Buffer
		pprof.Lookup("goroutine").WriteTo(&buf, 2)
		t.Fatalf("no progress after %v (lost wake-up?); goroutines:\n%s", limit, buf.String())
	}
}

// gap waits d: busy below 100 us, where a sleep would round far up, so
// short gaps land inside an idle worker's spin phase and long ones after
// it has parked.
func gap(d time.Duration) {
	if d >= 100*time.Microsecond {
		time.Sleep(d)
		return
	}
	for start := time.Now(); time.Since(start) < d; {
	}
}

// stressGap draws a submitter's pause: none, inside the spin budget,
// around its end, or well past it.
func stressGap(r *rng.RNG) time.Duration {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return time.Duration(r.Intn(20)) * time.Microsecond
	case 2:
		return time.Duration(20+r.Intn(180)) * time.Microsecond
	default:
		return time.Duration(200+r.Intn(1800)) * time.Microsecond
	}
}

// TestParkNoLostWakeup hammers the wake protocol: several goroutines
// submit through all three paths that make users visible (SubmitSubframe,
// SubmitSubframeFin, ProcessSubframe) after seeded random gaps straddling
// the spin budget, so submissions find workers spinning, parking and
// parked. Some subframes carry a maximum-size turbo code block whose
// windows fan out onto the deque mid-user, which only completes if a
// parked thief that missed the push is woken or the owner finishes alone.
// Every submission must complete and be counted exactly once, within a
// watchdog that dumps goroutines on a hang.
func TestParkNoLostWakeup(t *testing.T) {
	rc := turboReceiver()
	d := NewDispatcher(turboDispatcherConfig(rc))
	tiny := uplink.UserParams{ID: 1, PRB: uplink.MinPRB, Layers: 1, Mod: modulation.QPSK}
	small, err := d.Subframe(0, []uplink.UserParams{{ID: 0, PRB: uplink.MinPRB, Layers: 1, Mod: modulation.QPSK}, tiny})
	if err != nil {
		t.Fatal(err)
	}
	big, err := d.Subframe(1, []uplink.UserParams{turboMaxUser, tiny})
	if err != nil {
		t.Fatal(err)
	}
	const (
		submitters = 3
		rounds     = 30
	)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			var results atomic.Int64
			cfg := DefaultPoolConfig()
			cfg.Workers = workers
			cfg.Receiver = rc
			cfg.OnResult = func(uplink.UserResult) { results.Add(1) }
			pool, err := NewPool(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var users atomic.Int64
			withWatchdog(t, 10*time.Second, func() {
				var wg sync.WaitGroup
				for g := 0; g < submitters; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						r := rng.New(uint64(1 + 10*workers + g))
						// The hook recycles its subframe as the fronthaul
						// server's slot does, so under -race a submit path
						// that reads sf after enqueuing its last user fails.
						own := &uplink.Subframe{}
						fired := make(chan struct{}, 1)
						fin := NewSubframeFin(func() {
							own.Users = own.Users[:0]
							fired <- struct{}{}
						})
						for i := 0; i < rounds; i++ {
							gap(stressGap(r))
							sf := small
							if r.Intn(8) == 0 {
								sf = big
							}
							users.Add(int64(len(sf.Users)))
							switch r.Intn(3) {
							case 0:
								pool.SubmitSubframe(sf)
							case 1:
								own.Seq, own.Users = sf.Seq, append(own.Users, sf.Users...)
								pool.SubmitSubframeFin(own, fin)
								<-fired
							default:
								pool.ProcessSubframe(sf)
							}
						}
					}(g)
				}
				wg.Wait()
				pool.Close()
			})
			if got, want := results.Load(), users.Load(); got != want {
				t.Fatalf("%d results for %d submitted users", got, want)
			}
		})
	}
}

// TestParkRechecksAfterRegistering pins the parker's half of the wake
// invariant without a race to win: on a pool whose workers never started,
// work is made visible with no token sent — exactly what a waker that read
// parked just before the registration leaves behind — and park must see
// it and return instead of sleeping. The same holds for Close and for a
// mask that deactivates the worker (which must nap, not park).
func TestParkRechecksAfterRegistering(t *testing.T) {
	sf := shutdownSubframe(t, 0, 1)
	cases := []struct {
		name string
		make func(p *Pool)
	}{
		{"global queue", func(p *Pool) { p.global.enqueue(queuedUser{data: sf.Users[0]}) }},
		{"victim deque", func(p *Pool) { p.workers[1].local.push(Task{}) }},
		{"own deque", func(p *Pool) { p.workers[0].local.push(Task{}) }},
		{"closed", func(p *Pool) { p.closed.Store(true) }},
		{"masked", func(p *Pool) { p.active.Store(0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultPoolConfig()
			cfg.Workers = 2
			p, err := newPool(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.make(p)
			withWatchdog(t, 10*time.Second, p.workers[0].park)
			if n := p.parked.Load(); n != 0 {
				t.Errorf("parked = %d after park returned, want 0", n)
			}
		})
	}
}

// TestCloseWithParkedWorkers pins the shutdown edges of the wake
// protocol: Close must return when every worker is parked, when stale
// wake tokens fill the channel while workers are parked or re-parking,
// and when the channel is already full before the workers start — Close
// wakes everyone without ever blocking on a full channel.
func TestCloseWithParkedWorkers(t *testing.T) {
	waitParked := func(p *Pool) {
		for int(p.parked.Load()) < p.Workers() {
			time.Sleep(50 * time.Microsecond)
		}
	}
	fill := func(p *Pool) {
		for range cap(p.wakeCh) {
			select {
			case p.wakeCh <- struct{}{}:
			default:
				return
			}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			cfg := DefaultPoolConfig()
			cfg.Workers = workers
			withWatchdog(t, 10*time.Second, func() {
				// Every worker parked, nothing queued.
				p, err := NewPool(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				waitParked(p)
				p.Close()

				// Every worker parked, then stale tokens queued just before
				// Close: some workers are awake and re-parking, the channel
				// is (nearly) full.
				for i := 0; i < 50; i++ {
					p, err := NewPool(cfg)
					if err != nil {
						t.Error(err)
						return
					}
					waitParked(p)
					fill(p)
					p.Close()
				}

				// A full channel before the workers ever run.
				p, err = newPool(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				fill(p)
				p.start()
				p.Close()
			})
		})
	}
}
