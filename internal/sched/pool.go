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
	"ltephy/internal/phy/turbo"
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
	// from worker goroutines and must be safe for concurrent use. The
	// result's Bits and SoftBits are borrowed: the worker reuses them for
	// its next user once OnResult returns, so a consumer that keeps them
	// must copy them (Collector.Add does).
	OnResult func(uplink.UserResult)
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
	// in the paper), NapNanos time spent deactivated, ParkNanos time spent
	// parked. They never overlap.
	BusyNanos int64
	NapNanos  int64
	ParkNanos int64
}

// spinSweeps is how many consecutive empty sweeps (local deque, global
// queue, every victim) with no user in flight an idle worker yields
// through before it parks: enough to bridge a back-to-back submitter's
// gap between subframes, short next to a paced dispatch period, so a
// worker waiting for the next subframe parks instead of holding a P the
// server's ingest needs.
const spinSweeps = 64

// napAfterSweeps is the NapOnIdle (paper IDLE) threshold: a worker naps
// once this many consecutive sweeps came up empty.
const napAfterSweeps = 4

// Pool is the work-stealing worker pool.
type Pool struct {
	cfg     Config
	workers []*worker
	global  userQueue
	tel     *obs.Registry
	active  atomic.Int32 // workers with id >= active nap (proactive mask)
	closed  atomic.Bool
	wg      sync.WaitGroup
	// pending counts enqueued-but-unfinished users; the user whose
	// completion brings it to zero broadcasts drained under drainMu.
	pending atomic.Int64
	drainMu sync.Mutex
	drained *sync.Cond
	// parked counts workers registered to sleep on wakeCh. Whoever makes
	// work visible loads it afterwards and sends at most that many tokens,
	// never blocking. The buffer holds one token per worker, enough to wake
	// every worker at once; when it is full, the next receive returns at
	// once, so a dropped send never strands a parker.
	parked atomic.Int32
	wakeCh chan struct{}
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
	// job is reused for every user this worker runs, which is why OnResult
	// only borrows a result's Bits and SoftBits.
	job uplink.UserJob
	// join is the completion counter of this worker's open stage or window
	// fan-out; thieves decrement it through Task.rem. A worker has at most
	// one open join: runStage and runWindows never nest, because the only
	// caller of the window hook is the backend stage, which is serial and
	// runs inline on the user thread.
	join atomic.Int64
	// fanout is the turbo window fan-out over runWindows, built once so
	// that it allocates nothing per user or per half-iteration; seq and
	// user label the windows of the user being processed.
	fanout *turbo.Fanout
	seq    int64
	user   int32
	// taskNanos is the time runTask has charged to busy. An inline stage
	// subtracts what accrued while it ran, so busy time is exclusive.
	taskNanos int64
	stats     struct {
		tasksRun     atomic.Int64
		usersStarted atomic.Int64
		steals       atomic.Int64
		failedSteals atomic.Int64
		busyNanos    atomic.Int64
		napNanos     atomic.Int64
		parkNanos    atomic.Int64
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
	p := &Pool{cfg: cfg, tel: cfg.Telemetry, wakeCh: make(chan struct{}, cfg.Workers)}
	p.drained = sync.NewCond(&p.drainMu)
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
		w.local = &deque{}
		w.fanout = turbo.NewFanout(w.runWindows)
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
	if int32(n) < p.active.Swap(int32(n)) {
		// Newly masked workers may be parked; they must wake to nap.
		p.wake(p.cfg.Workers)
	}
}

// ActiveWorkers returns the current proactive mask.
func (p *Pool) ActiveWorkers() int { return int(p.active.Load()) }

// SubmitSubframe enqueues every user of a subframe for processing.
//
// The submit paths never read sf after its last user is enqueued: from
// then on the subframe can complete, and a completion hook may recycle it.
func (p *Pool) SubmitSubframe(sf *uplink.Subframe) {
	n := len(sf.Users)
	for _, u := range sf.Users {
		p.pending.Add(1)
		p.global.enqueue(queuedUser{seq: sf.Seq, cell: sf.Cell, data: u})
	}
	p.wake(n)
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
	n := len(sf.Users)
	fin.remaining.Store(int64(n))
	for _, u := range sf.Users {
		p.pending.Add(1)
		p.global.enqueue(queuedUser{seq: sf.Seq, cell: sf.Cell, data: u, fin: fin})
	}
	p.wake(n)
}

// ProcessSubframe enqueues a subframe and blocks until all of its users
// complete — used by tests and the verification harness.
func (p *Pool) ProcessSubframe(sf *uplink.Subframe) {
	n := len(sf.Users)
	var wg sync.WaitGroup
	wg.Add(n)
	for _, u := range sf.Users {
		p.pending.Add(1)
		p.global.enqueue(queuedUser{seq: sf.Seq, cell: sf.Cell, data: u, done: &wg})
	}
	p.wake(n)
	wg.Wait()
}

// wake sends at most n wake tokens, and no more than there are parked
// workers, without blocking. Callers make their work visible first; a
// parker registers in parked before its last look for work, so one of the
// two always sees the other. With nobody parked it costs one atomic load.
func (p *Pool) wake(n int) {
	for k := int(p.parked.Load()); k > 0 && n > 0; k, n = k-1, n-1 {
		select {
		case p.wakeCh <- struct{}{}:
		default:
			return // buffer full: the next receive returns at once anyway
		}
	}
}

// Drain blocks until every submitted user has been processed.
func (p *Pool) Drain() {
	p.drainMu.Lock()
	for p.pending.Load() > 0 {
		p.drained.Wait()
	}
	p.drainMu.Unlock()
}

// userDone retires one user from pending, waking Drain when it was the
// last. The lock is taken only on the transition to zero and is held for
// one broadcast, so its wait is bounded by another such broadcast or a
// drainer's load-and-wait.
//
//ltephy:blocking-ok
func (p *Pool) userDone() {
	if p.pending.Add(-1) == 0 {
		p.drainMu.Lock()
		p.drained.Broadcast()
		p.drainMu.Unlock()
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
	p.wake(p.cfg.Workers)
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
			ParkNanos:    w.stats.parkNanos.Load(),
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
	sweeps := 0 // consecutive empty sweeps
	for !w.pool.closed.Load() {
		// Proactive mask: deactivated workers nap, periodically waking to
		// re-check (the paper's nap instruction semantics).
		if w.id >= int(w.pool.active.Load()) {
			w.nap()
			continue
		}
		if t, ok := w.local.pop(); ok {
			w.runTask(t)
			sweeps = 0
			continue
		}
		// "Before a worker thread tries to steal work from another thread,
		// it first checks the global user queue."
		if qu, ok := w.pool.global.dequeue(); ok {
			w.processUser(qu)
			sweeps = 0
			continue
		}
		if t, ok := w.trySteal(); ok {
			w.runTask(t)
			sweeps = 0
			continue
		}
		sweeps = w.idle(sweeps + 1)
	}
}

// idle backs off after an empty sweep and returns the count of empty
// sweeps to carry into the next one. Under NapOnIdle (the paper's IDLE
// policy) it naps from the fifth empty sweep on, as it always has.
// Otherwise it yields while any user is in flight on another worker —
// that user's next stage or window fan-out is imminent, and a parked thief
// would come back a thread wake-up late — and parks only after spinSweeps
// empty sweeps with nothing in flight, until work is submitted or pushed.
func (w *worker) idle(sweeps int) int {
	switch {
	case w.pool.cfg.NapOnIdle:
		if sweeps > napAfterSweeps {
			w.nap()
		} else {
			runtime.Gosched()
		}
	case w.pool.pending.Load() > 0:
		runtime.Gosched()
		return 0
	case sweeps <= spinSweeps:
		runtime.Gosched()
	default:
		w.park()
		return 0
	}
	return sweeps
}

// park sleeps on the pool's wake channel until a submit, a push, a mask
// change or Close sends a token. It registers in parked before its final
// look for work, so whatever became visible before a waker read parked is
// seen here, and whatever becomes visible after is followed by a token.
// Parked time has its own counter: the worker is not deactivated, only
// descheduled by the Go runtime.
func (w *worker) park() {
	p := w.pool
	p.parked.Add(1)
	if !p.closed.Load() && w.id < int(p.active.Load()) && !p.hasWork() {
		start := obs.Nanotime()
		<-p.wakeCh
		w.stats.parkNanos.Add(obs.Nanotime() - start)
	}
	p.parked.Add(-1)
}

// hasWork reports whether any user is queued or any deque holds a task.
func (p *Pool) hasWork() bool {
	if p.global.size() > 0 {
		return true
	}
	for _, v := range p.workers {
		if v.local.size() > 0 {
			return true
		}
	}
	return false
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

// runTask executes one task against this worker's arena and counts it
// off its spawner's join, charging its span to the busy counter, the
// stage histogram and (sampled) the event ring, and overlaying the stage
// pprof label while it runs. The clock is read once per edge; the same
// readings feed the stats counter and the telemetry span.
//
//ltephy:hotpath — runs once per stage task and turbo window.
func (w *worker) runTask(t Task) {
	on := w.rec.Enabled()
	if on {
		pprof.SetGoroutineLabels(w.stageCtx[t.cls])
	}
	start := obs.Nanotime()
	if t.win != nil {
		t.win(int(t.task))
	} else {
		t.stage.Run(w.ws, t.job, int(t.task))
	}
	t.rem.Add(-1)
	end := obs.Nanotime()
	w.stats.busyNanos.Add(end - start)
	w.taskNanos += end - start
	w.stats.tasksRun.Add(1)
	if on {
		w.rec.StageSpan(t.cls, t.seq, t.user, t.task, start, end)
		pprof.SetGoroutineLabels(w.baseCtx)
	}
}

// processUser is the user-thread role (paper Section IV-C): initialise the
// job, then walk its Stages() — parallel stages are spawned onto the local
// deque and helped to completion, serial (single-task) stages run inline.
//
// Arena discipline: the job-lifetime buffers are carved from THIS worker's
// arena under a mark taken here, and released only after the result has
// been delivered, which is what lets OnResult borrow the soft bits. Tasks
// stolen by other workers write into those buffers (memory is just
// memory) but draw their own transient scratch from the thief's arena. While helping, this worker only ever executes stage
// tasks (its own or stolen), never another processUser — users are picked
// up solely from the global queue in run() — so every nested Mark/Release
// brackets a single task and the stack discipline holds trivially.
//
// The worker's job is reused for every user, so after warm-up nothing
// here allocates, and everything it reaches runs inside the subframe
// budget and must never block.
//
//ltephy:hotpath — runs once per user.
func (w *worker) processUser(qu queuedUser) {
	w.stats.usersStarted.Add(1)
	defer func() {
		if qu.done != nil {
			qu.done.Done()
		}
		if qu.fin != nil {
			qu.fin.complete()
		}
		w.pool.userDone()
	}()

	user := int32(qu.data.Params.ID)
	start := obs.Nanotime()
	m := w.ws.Mark()
	job := &w.job
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
		w.seq, w.user = qu.seq, user
		job.SetParallel(w.fanout)
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
			// Serial stage (weights, backend): run inline, no spawn, and
			// charge busy time net of the tasks run meanwhile.
			nested := w.taskNanos
			start = obs.Nanotime()
			s.Run(w.ws, job, 0)
			end = obs.Nanotime()
			w.stats.busyNanos.Add(end - start - (w.taskNanos - nested))
			w.rec.StageSpan(cls, qu.seq, user, 0, start, end)
			continue
		}
		w.runStage(cls, n, s, job, qu.seq, user)
	}

	res := job.Result()
	res.Seq = qu.seq
	res.Cell = qu.cell
	res.SoftBits = job.SoftBits()
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
// is the only task loop active on this goroutine, w.join is free, and the
// arena mark discipline of processUser is undisturbed.
//
// This is the audited window-task hand-off: the pushed tasks carry the
// decoder's fn, which references its arena-backed window state, stealing
// workers write disjoint slices, and the help loop joins on the
// completion counter before processUser releases the mark.
//
//ltephy:cross-worker-ok
//ltephy:hotpath — runs once per turbo half-iteration with windows to spread.
func (w *worker) runWindows(n int, fn func(int)) {
	w.join.Store(int64(n))
	for i := 0; i < n; i++ {
		w.local.push(Task{win: fn, rem: &w.join, seq: w.seq, user: w.user, task: int32(i), cls: obs.StageBackend})
	}
	w.pool.wake(n - 1)
	w.help()
}

// runStage pushes the stage's n tasks onto the local deque, then
// processes/helps until all have completed, stealing from others while
// waiting (the paper: "the user thread waits until the results from all
// tasks become available" while other workers may still hold stolen
// tasks). Each task runs against the executing worker's arena.
//
//ltephy:hotpath — runs once per parallel stage of every user.
func (w *worker) runStage(cls uint8, n int, s uplink.Stage, job *uplink.UserJob, seq int64, user int32) {
	w.join.Store(int64(n))
	for i := 0; i < n; i++ {
		w.local.push(Task{stage: s, job: job, rem: &w.join, seq: seq, user: user, task: int32(i), cls: cls})
	}
	w.pool.wake(n - 1)
	w.help()
}

// help is the join loop of runStage and runWindows: run our own tasks,
// then help with anything stealable — our own stolen-back tasks or other
// users' — until every task of the open join has completed. Tasks never
// block, so this cannot deadlock. It waits on tasks already in flight on
// other workers, so it yields rather than parks.
func (w *worker) help() {
	for {
		if t, ok := w.local.pop(); ok {
			w.runTask(t)
			continue
		}
		if w.join.Load() == 0 {
			return
		}
		if t, ok := w.trySteal(); ok {
			w.runTask(t)
			continue
		}
		runtime.Gosched()
	}
}
