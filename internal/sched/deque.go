// Package sched is the benchmark's parallel runtime: the Go analogue of
// the paper's Pthreads framework (Section IV). A fixed pool of worker
// goroutines (one per hardware core, like the paper's one-thread-per-tile
// mapping) runs a work-stealing scheduler: each worker owns a double-ended
// task queue, dequeues users from a global queue when idle, and steals
// from random victims otherwise. The pool supports the paper's two
// deactivation mechanisms — a nap mask driven by the workload estimator
// (proactive) and nap-on-idle (reactive) — with cycle accounting so the
// Eqs. 1-2 activity metric can be computed.
package sched

import (
	"sync"
	"sync/atomic"

	"ltephy/internal/uplink"
)

// Task is one unit of schedulable work, stored by value so that spawning
// it allocates nothing. It is either task index task of a receiver stage
// (stage.Run(ws, job, task)) or, when win is non-nil, one turbo trellis
// window (win(task)). Whichever worker runs it then decrements rem, the
// spawning worker's join counter. Tasks must not block; stage barriers
// are implemented by the spawner's help loop (runStage, runWindows), never
// inside a task. A stage task draws scratch from the executing worker's
// arena — a stolen task from the thief's, never from the spawner's.
//
// The telemetry identity (stage class, subframe sequence, user, task
// index) travels with the task so that whichever worker executes it —
// owner or thief — attributes the span to the right stage and subframe.
type Task struct {
	stage uplink.Stage
	job   *uplink.UserJob
	win   func(int)
	rem   *atomic.Int64
	seq   int64
	user  int32
	task  int32
	cls   uint8
}

// taskDeque is the work-stealing queue contract: the owning worker pushes
// and pops at the bottom, thieves steal from the top.
type taskDeque interface {
	push(Task)
	pop() (Task, bool)
	steal() (Task, bool)
	size() int
}

var _ taskDeque = (*deque)(nil)

// deque is a double-ended task queue: the owning worker pushes and pops at
// the bottom (LIFO, cache-friendly), thieves steal from the top (FIFO,
// steals the oldest — typically largest — work first).
//
// A mutex guards the deque rather than a lock-free Chase-Lev structure:
// benchmark tasks are tens of microseconds of DSP, so lock overhead is
// noise (a Chase-Lev deque won 3 of 10 alternating pairs; EXPERIMENTS.md),
// and the mutex keeps the memory-model reasoning trivial.
type deque struct {
	mu    sync.Mutex
	tasks []Task
	head  int // index of the oldest task; tasks[head:] are live
}

// push adds a task at the bottom (owner side). The deque mutex guards a
// few slice ops; hold time is tens of nanoseconds and the owner/thief
// contention is the work-stealing algorithm's audited primitive (see
// the deque comment).
//
//ltephy:blocking-ok
func (d *deque) push(t Task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

// pop removes the newest task (owner side). Bounded critical section
// (slice ops + compact); see push.
//
//ltephy:blocking-ok
func (d *deque) pop() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == d.head {
		return Task{}, false
	}
	t := d.tasks[len(d.tasks)-1]
	d.tasks[len(d.tasks)-1] = Task{}
	d.tasks = d.tasks[:len(d.tasks)-1]
	d.compact()
	return t, true
}

// steal removes the oldest task (thief side). Bounded critical section
// (slice ops + compact); see push.
//
//ltephy:blocking-ok
func (d *deque) steal() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == d.head {
		return Task{}, false
	}
	t := d.tasks[d.head]
	d.tasks[d.head] = Task{}
	d.head++
	d.compact()
	return t, true
}

// size reports the number of queued tasks (approximate under concurrency;
// used for stats and tests).
func (d *deque) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.tasks) - d.head
}

// compact reclaims the dead prefix once it dominates the backing array.
// Called with the lock held.
func (d *deque) compact() {
	if d.head == len(d.tasks) {
		d.tasks = d.tasks[:0]
		d.head = 0
		return
	}
	if d.head > 64 && d.head > len(d.tasks)/2 {
		n := copy(d.tasks, d.tasks[d.head:])
		for i := n; i < len(d.tasks); i++ {
			d.tasks[i] = Task{}
		}
		d.tasks = d.tasks[:n]
		d.head = 0
	}
}

// userQueue is the global FIFO of users awaiting processing — the paper's
// "global queue" the maintenance thread writes each subframe's users to.
// Entries are stored by value: once the backing array has grown to the
// high-water in-flight user count, enqueue performs no heap allocation,
// which the fronthaul ingest loop's zero-alloc dispatch gate relies on.
type userQueue struct {
	mu    sync.Mutex
	items []queuedUser
	head  int
}

func (q *userQueue) enqueue(u queuedUser) {
	q.mu.Lock()
	q.items = append(q.items, u)
	q.mu.Unlock()
}

func (q *userQueue) dequeue() (queuedUser, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.items) {
		return queuedUser{}, false
	}
	u := q.items[q.head]
	q.items[q.head] = queuedUser{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return u, true
}

func (q *userQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}
