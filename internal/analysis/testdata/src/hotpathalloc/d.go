// d.go exercises the closure rule: a hot-path spawner that packs a
// capturing closure into a task literal allocates the closure (and moves
// what it captures to the heap) once per task; carrying the same values as
// task fields does not.
package hotpathalloc

import "sync/atomic"

type task struct {
	fn   func()
	work func(int)
	rem  *atomic.Int64
	idx  int
}

type spawner struct {
	queue []task
	join  atomic.Int64
}

func (s *spawner) push(t task) { s.queue = append(s.queue, t) }

// spawnClosures is the per-task closure shape the rule exists for.
//
//ltephy:hotpath — runs once per fan-out.
func (s *spawner) spawnClosures(n int, work func(int)) {
	var rem atomic.Int64
	rem.Store(int64(n))
	for i := 0; i < n; i++ {
		i := i
		s.push(task{fn: func() { // want "closure stored in a composite literal"
			work(i)
			rem.Add(-1)
		}})
	}
}

// spawnValues carries the same work as fields: no diagnostics.
//
//ltephy:hotpath — runs once per fan-out.
func (s *spawner) spawnValues(n int, work func(int)) {
	s.join.Store(int64(n))
	for i := 0; i < n; i++ {
		s.push(task{work: work, rem: &s.join, idx: i})
	}
}

// spawnStatic stores a closure that captures nothing: the compiler
// allocates it statically, so it is not flagged.
//
//ltephy:hotpath — runs once per fan-out.
func (s *spawner) spawnStatic() {
	s.push(task{fn: func() {}})
}
