package main

import (
	"runtime"
	"sync/atomic"

	"ltephy/internal/sched"
	"ltephy/internal/uplink"
)

// passRun is what one timed loop over a pool yields, whichever path the
// subframes took: per-subframe latencies with the slice each fell in, the
// subframes each slice completed per second, and the failure count.
type passRun struct {
	lat       []int64
	slice     []uint8
	sliceTput []float64
	subframes int
	failed    int
	mallocs   uint64
}

func (r passRun) p50() float64 { return median(floats(r.lat)) }

// merge appends a later chunk of the same measurement.
func (r *passRun) merge(o passRun) {
	r.lat = append(r.lat, o.lat...)
	r.subframes, r.failed = r.subframes+o.subframes, r.failed+o.failed
}

// timedLoop calls process on successive pool entries for dur ns, split into
// nSlices equal slices, timing each call. process reports whether the entry's
// results matched the golden pass.
func timedLoop(pl *pool, dur int64, nSlices int, process func(e *entry) bool) passRun {
	var run passRun
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	run.lat = make([]int64, 0, 1<<12)
	run.slice = make([]uint8, 0, 1<<12)
	sliceLen := dur / int64(nSlices)
	for s := 0; s < nSlices; s++ {
		start := now()
		end := start + sliceLen
		n := 0
		t := start
		for t < end {
			ok := process(pl.take())
			t2 := now()
			run.lat = append(run.lat, t2-t)
			run.slice = append(run.slice, uint8(s))
			t = t2
			if !ok {
				run.failed++
			}
			n++
		}
		run.sliceTput = append(run.sliceTput, float64(n)/(float64(t-start)/1e9))
		run.subframes += n
	}
	runtime.ReadMemStats(&ms)
	run.mallocs = ms.Mallocs - mallocs
	return run
}

// runSerial is the in-process end-to-end path: uplink.ProcessSubframe on one
// goroutine, back to back. The golden comparison sits inside the timed call so
// that throughput counts verified subframes per wall second; it is a memcmp of
// the decoded bits, well under 1 % of a subframe.
func runSerial(rc uplink.ReceiverConfig, pl *pool, dur int64, nSlices int) passRun {
	return timedLoop(pl, dur, nSlices, func(e *entry) bool {
		results, err := uplink.ProcessSubframe(rc, &e.sf)
		return err == nil && e.matches(results)
	})
}

// checkedPool is a sched.Pool whose every user result is compared with the
// golden pass as it is delivered.
type checkedPool struct {
	*sched.Pool
	bad atomic.Int64
}

func newCheckedPool(rc uplink.ReceiverConfig, pl *pool, workers int) (*checkedPool, error) {
	cp := &checkedPool{}
	cfg := sched.DefaultPoolConfig()
	cfg.Workers = workers
	cfg.Receiver = rc
	cfg.Seed = defaultSeed
	cfg.OnResult = func(r uplink.UserResult) {
		if !sameResult(&r, &pl.entries[r.Seq].golden[r.UserID]) {
			cp.bad.Add(1)
		}
	}
	p, err := sched.NewPool(cfg)
	if err != nil {
		return nil, err
	}
	cp.Pool = p
	return cp, nil
}

// run times Pool.ProcessSubframe over the pool like runSerial does the
// serial receiver; failures are result mismatches seen by OnResult.
func (cp *checkedPool) run(pl *pool, dur int64, nSlices int) passRun {
	before := cp.bad.Load()
	run := timedLoop(pl, dur, nSlices, func(e *entry) bool {
		cp.ProcessSubframe(&e.sf)
		return true
	})
	run.failed = int(cp.bad.Load() - before)
	return run
}
