package sched

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ltephy/internal/obs"
	"ltephy/internal/phy/workspace"
	"ltephy/internal/rng"
	"ltephy/internal/uplink"
)

// queuedUser pairs a user's input data with its subframe for result
// labelling. It is enqueued by value so steady-state submission does not
// allocate.
type queuedUser struct {
	seq  int64
	cell uint16
	data *uplink.UserData
	done *sync.WaitGroup // non-nil when a caller waits for the subframe
	fin  *SubframeFin    // non-nil when a completion hook fires at subframe end
}

// SubframeFin is a reusable subframe-completion hook: the last user of the
// subframe to finish invokes fn on its worker goroutine. Unlike the
// WaitGroup path it never blocks a submitter, which is what the fronthaul
// server needs — its ingest loop must keep decoding while earlier
// subframes are still in flight, and the hook recycles the subframe's
// arena slot and sends the ack.
//
// A SubframeFin may be reused across subframes (Reset rearms it), but only
// after the previous subframe's hook has fired.
type SubframeFin struct {
	remaining atomic.Int64
	fn        func()
}

// NewSubframeFin returns a hook that calls fn when the subframe it is
// armed for completes.
func NewSubframeFin(fn func()) *SubframeFin {
	return &SubframeFin{fn: fn}
}

// complete records one finished user, firing the hook on the last.
func (f *SubframeFin) complete() {
	if f.remaining.Add(-1) == 0 {
		f.fn()
	}
}

// Config configures a worker pool.
type Config struct {
	// Workers is the number of worker goroutines (the paper uses 62, one
	// per free TILEPro64 core). Defaults to GOMAXPROCS.
	Workers int
	// Receiver is the uplink receiver configuration every job uses.
	Receiver uplink.ReceiverConfig
	// NapOnIdle enables the reactive policy (the paper's IDLE): a worker
	// that cannot find any work naps for NapCheckPeriod before looking
	// again, instead of spinning.
	NapOnIdle bool
	// NapCheckPeriod is how long a napping core sleeps between checks of
	// its status — the paper's "a core periodically wakes up to see if its
	// status has changed".
	NapCheckPeriod time.Duration
	// OnResult, when non-nil, receives every user result. It is called
	// from worker goroutines and must be safe for concurrent use.
	OnResult func(uplink.UserResult)
	// LockFreeDeque selects the Chase-Lev lock-free deque instead of the
	// default mutex-guarded one. BenchmarkDeques compares them; with this
	// benchmark's coarse tasks the difference is small.
	LockFreeDeque bool
	// Seed randomises steal victim selection.
	Seed uint64
	// Telemetry, when non-nil, is the registry the pool records into; it
	// must have at least Workers recorders. When nil the pool creates its
	// own (retrievable via Pool.Telemetry) with TraceDepth-deep rings.
	// Recording stays off until Registry.SetSampling enables it.
	Telemetry *obs.Registry
	// TraceDepth is the per-worker event-ring capacity used when the pool
	// creates its own registry (obs.DefaultRingDepth when <= 0).
	TraceDepth int
}

// DefaultPoolConfig returns a pool configuration with paper-equivalent
// defaults scaled to the host.
func DefaultPoolConfig() Config {
	return Config{
		Workers:        runtime.GOMAXPROCS(0),
		Receiver:       uplink.DefaultConfig(),
		NapCheckPeriod: 100 * time.Microsecond,
	}
}

// WorkerStats are cumulative per-worker counters for the activity metric
// (paper Eqs. 1-2) and scheduling diagnostics.
type WorkerStats struct {
	TasksRun     int64
	UsersStarted int64
	Steals       int64
	FailedSteals int64
	// BusyNanos is time spent in useful processing (get_cycle_count deltas
	// in the paper), NapNanos time spent deactivated.
	BusyNanos int64
	NapNanos  int64
}

// Pool is the work-stealing worker pool.
type Pool struct {
	cfg     Config
	workers []*worker
	global  userQueue
	tel     *obs.Registry
	active  atomic.Int32 // workers with id >= active nap (proactive mask)
	closed  atomic.Bool
	wg      sync.WaitGroup
	// pending counts enqueued-but-unfinished users, letting Drain wait.
	pending atomic.Int64
}

type worker struct {
	id    int
	pool  *Pool
	local taskDeque
	r     *rng.RNG
	// ws is the worker-owned scratch arena. Only this worker's goroutine
	// touches it — every task the worker executes (its own or stolen)
	// draws scratch from here, so no locking is ever needed.
	ws *workspace.Arena
	// rec is this worker's telemetry recorder (ring + sampling countdown).
	rec *obs.WorkerRecorder
	// Precomputed pprof label contexts: baseCtx carries the worker label,
	// stageCtx[c] adds the stage-class label. Precomputing keeps the
	// per-task SetGoroutineLabels swap allocation-free.
	baseCtx  context.Context
	stageCtx [obs.NumStages]context.Context
	stats    struct {
		tasksRun     atomic.Int64
		usersStarted atomic.Int64
		steals       atomic.Int64
		failedSteals atomic.Int64
		busyNanos    atomic.Int64
		napNanos     atomic.Int64
	}
}

// NewPool builds the pool and starts its workers. Call Close to stop them.
func NewPool(cfg Config) (*Pool, error) {
	p, err := newPool(cfg)
	if err != nil {
		return nil, err
	}
	p.start()
	return p, nil
}

// newPool builds the pool and its workers without starting them.
func newPool(cfg Config) (*Pool, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.NapCheckPeriod <= 0 {
		cfg.NapCheckPeriod = 100 * time.Microsecond
	}
	if err := cfg.Receiver.Validate(); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = obs.New(cfg.Workers, cfg.TraceDepth)
	} else if cfg.Telemetry.Workers() < cfg.Workers {
		return nil, fmt.Errorf("sched: telemetry registry has %d recorders for %d workers",
			cfg.Telemetry.Workers(), cfg.Workers)
	}
	p := &Pool{cfg: cfg, tel: cfg.Telemetry}
	p.active.Store(int32(cfg.Workers))
	seeds := rng.New(cfg.Seed)
	p.workers = make([]*worker, cfg.Workers)
	for i := range p.workers {
		w := &worker{id: i, pool: p, r: seeds.Split(), ws: workspace.New()}
		w.rec = p.tel.Worker(i)
		w.baseCtx = pprof.WithLabels(context.Background(),
			pprof.Labels("worker", strconv.Itoa(i)))
		for c := range w.stageCtx {
			w.stageCtx[c] = pprof.WithLabels(w.baseCtx,
				pprof.Labels("stage", obs.StageNames[c]))
		}
		if cfg.LockFreeDeque {
			w.local = newCLDeque()
		} else {
			w.local = &deque{}
		}
		p.workers[i] = w
	}
	return p, nil
}

// start spawns the worker goroutines. Their lifecycle is owned by p.wg:
// Add(Workers) before the spawns, every run() defers Done, Close joins via
// wg.Wait.
//
//ltephy:spawn-point
func (p *Pool) start() {
	p.wg.Add(len(p.workers))
	for _, w := range p.workers {
		go w.run()
	}
}

// Workers returns the configured worker count.
func (p *Pool) Workers() int { return p.cfg.Workers }

// Telemetry returns the pool's telemetry registry (never nil).
func (p *Pool) Telemetry() *obs.Registry { return p.tel }

// SetActiveWorkers applies the proactive nap mask: workers with id >= n
// nap until the mask rises again (the paper's Eq. 5-driven deactivation).
// n is clamped to [1, Workers].
func (p *Pool) SetActiveWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > p.cfg.Workers {
		n = p.cfg.Workers
	}
	p.active.Store(int32(n))
}

// ActiveWorkers returns the current proactive mask.
func (p *Pool) ActiveWorkers() int { return int(p.active.Load()) }

// SubmitSubframe enqueues every user of a subframe for processing.
func (p *Pool) SubmitSubframe(sf *uplink.Subframe) {
	for _, u := range sf.Users {
		p.pending.Add(1)
		p.global.enqueue(queuedUser{seq: sf.Seq, cell: sf.Cell, data: u})
	}
}

// SubmitSubframeFin enqueues a subframe with a completion hook: fin.fn
// runs (on a worker goroutine) after the last user finishes. An empty
// subframe fires the hook immediately on the caller's goroutine. The
// caller must not rearm fin until it has fired.
func (p *Pool) SubmitSubframeFin(sf *uplink.Subframe, fin *SubframeFin) {
	if len(sf.Users) == 0 {
		fin.fn()
		return
	}
	fin.remaining.Store(int64(len(sf.Users)))
	for _, u := range sf.Users {
		p.pending.Add(1)
		p.global.enqueue(queuedUser{seq: sf.Seq, cell: sf.Cell, data: u, fin: fin})
	}
}

// ProcessSubframe enqueues a subframe and blocks until all of its users
// complete — used by tests and the verification harness.
func (p *Pool) ProcessSubframe(sf *uplink.Subframe) {
	var wg sync.WaitGroup
	wg.Add(len(sf.Users))
	for _, u := range sf.Users {
		p.pending.Add(1)
		p.global.enqueue(queuedUser{seq: sf.Seq, cell: sf.Cell, data: u, done: &wg})
	}
	wg.Wait()
}

// Drain blocks until every submitted user has been processed.
func (p *Pool) Drain() {
	for p.pending.Load() > 0 {
		runtime.Gosched()
	}
}

// Pending returns the number of submitted users not yet completed — the
// pool-level quiescence gauge per-cell drains poll alongside their own
// SubframeFin accounting (a pool multiplexes cells, so Pending()==0 is
// sufficient but not necessary for one cell to be drained).
func (p *Pool) Pending() int64 { return p.pending.Load() }

// Close stops the workers after the queues drain.
func (p *Pool) Close() {
	p.Drain()
	p.closed.Store(true)
	p.wg.Wait()
}

// ArenaFootprints reports the backing memory each worker's scratch arena
// has accumulated. Arenas grow to the high-water mark of the largest jobs
// they serve and are never trimmed, so after warm-up these are steady.
// Only call while the pool is quiescent (drained or closed): the counters
// are read without synchronisation against the worker goroutines.
func (p *Pool) ArenaFootprints() []int {
	out := make([]int, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.ws.Footprint()
	}
	return out
}

// Stats returns a snapshot of per-worker counters.
func (p *Pool) Stats() []WorkerStats {
	return p.StatsInto(make([]WorkerStats, len(p.workers)))
}

// StatsInto snapshots the per-worker counters into dst, growing it only
// if too small, and returns the filled slice — the allocation-free form
// for periodic samplers (the dispatcher's activity measurement reuses
// two buffers across the whole run).
func (p *Pool) StatsInto(dst []WorkerStats) []WorkerStats {
	if cap(dst) < len(p.workers) {
		dst = make([]WorkerStats, len(p.workers))
	}
	dst = dst[:len(p.workers)]
	for i, w := range p.workers {
		dst[i] = WorkerStats{
			TasksRun:     w.stats.tasksRun.Load(),
			UsersStarted: w.stats.usersStarted.Load(),
			Steals:       w.stats.steals.Load(),
			FailedSteals: w.stats.failedSteals.Load(),
			BusyNanos:    w.stats.busyNanos.Load(),
			NapNanos:     w.stats.napNanos.Load(),
		}
	}
	return dst
}

// WritePrometheus writes the per-worker counters in Prometheus text
// format — the pool-side companion of obs.WritePrometheus, composed by
// passing it as an extra section to obs.Handler.
func (p *Pool) WritePrometheus(w io.Writer) error {
	if _, err := io.WriteString(w,
		"# HELP ltephy_worker_tasks_total Stage tasks executed per worker.\n# TYPE ltephy_worker_tasks_total counter\n"+
			"# HELP ltephy_worker_users_total Users picked up per worker.\n# TYPE ltephy_worker_users_total counter\n"+
			"# HELP ltephy_worker_steals_total Successful steals per worker.\n# TYPE ltephy_worker_steals_total counter\n"+
			"# HELP ltephy_worker_failed_steals_total Failed steal sweeps per worker.\n# TYPE ltephy_worker_failed_steals_total counter\n"+
			"# HELP ltephy_worker_busy_seconds_total Useful processing time per worker.\n# TYPE ltephy_worker_busy_seconds_total counter\n"+
			"# HELP ltephy_worker_nap_seconds_total Deactivated (napping) time per worker.\n# TYPE ltephy_worker_nap_seconds_total counter\n"); err != nil {
		return err
	}
	for i, st := range p.Stats() {
		if _, err := fmt.Fprintf(w,
			"ltephy_worker_tasks_total{worker=\"%d\"} %d\nltephy_worker_users_total{worker=\"%d\"} %d\n"+
				"ltephy_worker_steals_total{worker=\"%d\"} %d\nltephy_worker_failed_steals_total{worker=\"%d\"} %d\n"+
				"ltephy_worker_busy_seconds_total{worker=\"%d\"} %g\nltephy_worker_nap_seconds_total{worker=\"%d\"} %g\n",
			i, st.TasksRun, i, st.UsersStarted, i, st.Steals, i, st.FailedSteals,
			i, float64(st.BusyNanos)/1e9, i, float64(st.NapNanos)/1e9); err != nil {
			return err
		}
	}
	return nil
}

// Activity computes the paper's Eq. 2 over a measurement window: the sum
// of useful (busy) time across workers divided by workers * wall time.
func Activity(before, after []WorkerStats, wall time.Duration) float64 {
	if len(before) != len(after) || wall <= 0 {
		return math.NaN()
	}
	var busy int64
	for i := range after {
		busy += after[i].BusyNanos - before[i].BusyNanos
	}
	return float64(busy) / (float64(len(after)) * float64(wall.Nanoseconds()))
}

// run is the worker main loop (paper Section IV-C): local work first, then
// the global user queue, then stealing; idle behaviour depends on policy
// and the proactive mask.
func (w *worker) run() {
	defer w.pool.wg.Done()
	// The base labels attribute every profiler sample on this goroutine
	// to the worker; runTask overlays the stage label per task.
	pprof.SetGoroutineLabels(w.baseCtx)
	idleSpins := 0
	for {
		if w.pool.closed.Load() {
			return
		}
		// Proactive mask: deactivated workers nap, periodically waking to
		// re-check (the paper's nap instruction semantics).
		if w.id >= int(w.pool.active.Load()) {
			w.nap()
			continue
		}
		if t, ok := w.local.pop(); ok {
			w.runTask(t)
			idleSpins = 0
			continue
		}
		// "Before a worker thread tries to steal work from another thread,
		// it first checks the global user queue."
		if qu, ok := w.pool.global.dequeue(); ok {
			w.processUser(qu)
			idleSpins = 0
			continue
		}
		if t, ok := w.trySteal(); ok {
			w.runTask(t)
			idleSpins = 0
			continue
		}
		// No work anywhere.
		idleSpins++
		if w.pool.cfg.NapOnIdle && idleSpins > 4 {
			w.nap()
		} else {
			runtime.Gosched()
		}
	}
}

// nap models the TILEPro64 nap instruction: sleep, charge the time to the
// nap counter, then return to the loop to re-check status. One clock read
// per edge serves both the stats counter and the telemetry span.
func (w *worker) nap() {
	start := obs.Nanotime()
	time.Sleep(w.pool.cfg.NapCheckPeriod)
	end := obs.Nanotime()
	w.stats.napNanos.Add(end - start)
	w.rec.Span(obs.KindNap, start, end)
}

// trySteal visits every other worker once, starting at a random victim.
func (w *worker) trySteal() (Task, bool) {
	n := len(w.pool.workers)
	if n <= 1 {
		return Task{}, false
	}
	start := w.r.Intn(n)
	for i := 0; i < n; i++ {
		v := (start + i) % n
		if v == w.id {
			continue
		}
		if t, ok := w.pool.workers[v].local.steal(); ok {
			w.stats.steals.Add(1)
			if w.rec.Enabled() {
				w.rec.Instant(obs.KindSteal, obs.Nanotime())
			}
			return t, true
		}
	}
	w.stats.failedSteals.Add(1)
	return Task{}, false
}

// runTask executes one stage task, charging its span to the busy counter,
// the stage histogram and (sampled) the event ring, and overlaying the
// stage pprof label while it runs. The clock is read once per edge; the
// same readings feed the stats counter and the telemetry span.
func (w *worker) runTask(t Task) {
	on := w.rec.Enabled()
	if on {
		pprof.SetGoroutineLabels(w.stageCtx[t.stage])
	}
	start := obs.Nanotime()
	t.fn(w.ws)
	end := obs.Nanotime()
	w.stats.busyNanos.Add(end - start)
	w.stats.tasksRun.Add(1)
	if on {
		w.rec.StageSpan(t.stage, t.seq, t.user, t.task, start, end)
		pprof.SetGoroutineLabels(w.baseCtx)
	}
}

// processUser is the user-thread role (paper Section IV-C): initialise the
// job, then walk its Stages() — parallel stages are spawned onto the local
// deque and helped to completion, serial (single-task) stages run inline.
//
// Arena discipline: the job-lifetime buffers are carved from THIS worker's
// arena under a mark taken here, and released only after the result has
// been delivered. Tasks stolen by other workers write into those buffers
// (memory is just memory) but draw their own transient scratch from the
// thief's arena. While helping, this worker only ever executes stage
// tasks (its own or stolen), never another processUser — users are picked
// up solely from the global queue in run() — so every nested Mark/Release
// brackets a single task and the stack discipline holds trivially.
//
// This is the per-user deadline root: the driver loop allocates the job
// by design (not a zero-alloc root) but everything it reaches runs
// inside the subframe budget and must never block.
//
//ltephy:deadline-root
func (w *worker) processUser(qu queuedUser) {
	w.stats.usersStarted.Add(1)
	defer func() {
		if qu.done != nil {
			qu.done.Done()
		}
		if qu.fin != nil {
			qu.fin.complete()
		}
		w.pool.pending.Add(-1)
	}()

	user := int32(qu.data.Params.ID)
	start := obs.Nanotime()
	m := w.ws.Mark()
	// A fresh job per user: results escape through OnResult, and a reused
	// job would recycle the previous result's payload storage.
	job := &uplink.UserJob{}
	if err := job.Init(w.ws, w.pool.cfg.Receiver, qu.data); err != nil {
		// Malformed input is a caller bug; surface it loudly rather than
		// silently dropping the user. Release first so a recovering test
		// harness does not inherit a corrupted arena stack.
		w.ws.Release(m)
		panic(fmt.Sprintf("sched: worker %d: %v", w.id, err))
	}
	end := obs.Nanotime()
	w.stats.busyNanos.Add(end - start)
	w.rec.StageSpan(obs.StageInit, qu.seq, user, 0, start, end)

	// Window fan-out: hand the turbo decoder a hook that turns one large
	// code block's trellis windows into backend-class tasks on this
	// worker's deque, so a single max-size block no longer serializes the
	// subframe on one core. Installed after Init (which clears it); with
	// one worker the hook would only add push/pop overhead, so the decoder
	// runs serially — results are bit-identical either way.
	if len(w.pool.workers) > 1 {
		job.SetParallel(func(n int, fn func(int)) {
			w.runWindows(qu.seq, user, n, fn)
		})
	}

	stages := job.Stages()
	for si := range stages {
		s := stages[si]
		// The stage index is the obs stage class: Stages() returns the
		// pipeline in chanest/weights/combine/backend order, matching
		// obs.StageChanEst..StageBackend (TestStageClassAlignment pins it).
		cls := uint8(si)
		n := s.Tasks(job)
		if n == 1 {
			// Serial stage (weights, backend): run inline, no spawn.
			start = obs.Nanotime()
			s.Run(w.ws, job, 0)
			end = obs.Nanotime()
			w.stats.busyNanos.Add(end - start)
			w.rec.StageSpan(cls, qu.seq, user, 0, start, end)
			continue
		}
		w.runStage(cls, n, s, job, qu.seq, user)
	}

	res := job.Result()
	res.Seq = qu.seq
	res.Cell = qu.cell
	if w.pool.cfg.OnResult != nil {
		w.pool.cfg.OnResult(res)
	}
	if w.rec.Enabled() {
		w.rec.TurboHalfIters(res.TurboHalfIters)
		w.pool.tel.Deadline().Complete(qu.seq, obs.Nanotime())
	}
	w.ws.Release(m)
}

// runWindows is the turbo window fan-out (the hook processUser installs
// via UserJob.SetParallel): each of the decoder's n independent trellis
// windows becomes a backend-class task on this worker's deque, and the
// worker processes/helps until the half-iteration's windows are all done
// — the same spawn-and-help discipline runStage applies to the paper's
// stage tasks, one level deeper. Windows write disjoint slices of the
// decoder's state, so thieves need no synchronisation beyond the
// completion counter, and the result is bit-identical for any worker
// count.
//
// The decoder invokes the hook from the backend stage, which runs inline
// on the user thread — never from a stolen task — so the help loop here
// is the only task loop active on this goroutine and the arena mark
// discipline of processUser is undisturbed.
//
// This is the audited window-task hand-off: the pushed closures
// reference the decoder's arena-backed window state (through fn),
// stealing workers write disjoint slices, and the help loop joins on
// the completion counter before processUser releases the mark.
//
//ltephy:cross-worker-ok
func (w *worker) runWindows(seq int64, user int32, n int, fn func(int)) {
	var remaining atomic.Int64
	remaining.Store(int64(n))
	for i := 0; i < n; i++ {
		i := i
		w.local.push(Task{
			fn: func(*workspace.Arena) {
				fn(i)
				remaining.Add(-1)
			},
			seq: seq, user: user, task: int32(i), stage: obs.StageBackend,
		})
	}
	for {
		if t, ok := w.local.pop(); ok {
			w.runTask(t)
			continue
		}
		if remaining.Load() == 0 {
			return
		}
		if t, ok := w.trySteal(); ok {
			w.runTask(t)
			continue
		}
		runtime.Gosched()
	}
}

// runStage pushes the stage's n tasks onto the local deque, then
// processes/helps until all have completed, stealing from others while
// waiting (the paper: "the user thread waits until the results from all
// tasks become available" while other workers may still hold stolen
// tasks). Each task runs against the executing worker's arena.
func (w *worker) runStage(cls uint8, n int, s uplink.Stage, job *uplink.UserJob, seq int64, user int32) {
	var remaining atomic.Int64
	remaining.Store(int64(n))
	for i := 0; i < n; i++ {
		i := i
		w.local.push(Task{
			fn: func(ws *workspace.Arena) {
				s.Run(ws, job, i)
				remaining.Add(-1)
			},
			seq: seq, user: user, task: int32(i), stage: cls,
		})
	}
	for {
		if t, ok := w.local.pop(); ok {
			w.runTask(t)
			continue
		}
		if remaining.Load() == 0 {
			return
		}
		// Help with anything while waiting — our own stolen-back tasks or
		// other users' tasks; tasks never block, so this cannot deadlock.
		if t, ok := w.trySteal(); ok {
			w.runTask(t)
			continue
		}
		runtime.Gosched()
	}
}
