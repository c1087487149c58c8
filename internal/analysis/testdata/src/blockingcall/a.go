// Package blockingcall exercises the deadline-blocking analyzer. The
// stage type mirrors the real uplink.Stage shape (Run with a
// *workspace.Arena first parameter seeds the deadline-bound walk), and a
// //ltephy:hotpath function covers the annotated-root path.
package blockingcall

import (
	"os"
	"sync"
	"time"

	"workspace"
)

type stage struct{ mu sync.Mutex }

// Run is a deadline-bound root; everything it reaches is checked.
func (s *stage) Run(ws *workspace.Arena, in []byte) {
	s.helper()
	s.audited()
	s.mu.Lock() // want "sync.Lock acquisition in deadline-bound function"
	s.mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep in deadline-bound function"
	logIt()
	warm()
}

// helper is reached transitively from Run: channel operations block.
func (s *stage) helper() {
	ch := make(chan int, 1)
	ch <- 1   // want "channel send in deadline-bound function"
	v := <-ch // want "channel receive in deadline-bound function"
	_ = v
	select { // want "select without default in deadline-bound function"
	case w := <-ch:
		_ = w
	}
	select { // non-blocking poll: sanctioned, no diagnostic
	case w := <-ch:
		_ = w
	default:
	}
	drain(ch)
}

// drain blocks until the channel closes.
func drain(ch chan int) {
	for range ch { // want "range over channel in deadline-bound function"
	}
}

// logIt reaches the filesystem: syscalls have no deadline.
func logIt() {
	f, _ := os.Create("x") // want "os.Create performs I/O or a syscall in deadline-bound function"
	f.Write(nil)           // want "os.Write performs I/O in deadline-bound function"
}

// audited opts out for its own body; its callee is still traversed.
//
//ltephy:blocking-ok — bounded uncontended hand-off, audited in fixture.
func (s *stage) audited() {
	s.mu.Lock() // no diagnostic: function-level opt-out
	s.mu.Unlock()
	deeper()
}

// deeper is reached through the opted-out function and still checked.
func deeper() {
	time.Sleep(time.Nanosecond) // want "time.Sleep in deadline-bound function"
}

// warm is cold construction: neither checked nor traversed.
//
//ltephy:coldpath — one-time table build, off the steady state.
func warm() {
	ch := make(chan int)
	<-ch // no diagnostic: coldpath
}

// drive covers the //ltephy:hotpath vocabulary: a driver loop that is
// deadline-bound without having the Stage entry shape.
//
//ltephy:hotpath — fixture per-user driver loop.
func drive(ch chan int) {
	<-ch // want "channel receive in deadline-bound function"
}

// idle is unreachable from any root: blocking is fine here.
func idle(ch chan int) {
	<-ch
	time.Sleep(time.Second)
}
