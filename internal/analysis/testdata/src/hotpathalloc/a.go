// Package hotpathalloc exercises the hot-path allocation analyzer. The
// stage type mirrors the real uplink.Stage shape: a Run method whose
// first parameter is *workspace.Arena seeds the call-graph walk.
package hotpathalloc

import (
	"fmt"
	"workspace"
)

type job struct{ n int }

type stage struct{}

// Run is a hot-path seed; everything it reaches is checked.
func (stage) Run(ws *workspace.Arena, j *job, i int) {
	kernel(ws, j.n)
	warmTable(j.n)
	guarded(ws, j.n)
	fill(ws.Float(j.n), j.n)
	sink(describe(j.n))
	telemetry.record(span{0, 1})
	recordGrowing(span{0, 1})
	_ = half(float32(j.n))
	_ = boxed(j.n)
}

// half converts to its type parameter — the generic-kernel shape, a
// conversion between concrete types at every instantiation: clean.
func half[T float32 | float64](x T) T {
	return T(float64(x) / 2)
}

// boxed converts to an interface type proper: a heap box per call.
func boxed(n int) any {
	return any(n) // want "conversion to interface boxes"
}

// span and ring mirror the obs event-ring shape: a fixed-capacity
// preallocated buffer with wraparound overwrite — the sanctioned
// telemetry pattern on the hot path.
type span struct{ start, end int64 }

type ring struct {
	buf   []span
	total uint64
}

// telemetry's buffer is built at package init: cold, never re-sized.
var telemetry = ring{buf: make([]span, 64)}

// record overwrites in place; reachable from Run via a method call and
// clean — no diagnostics.
func (r *ring) record(e span) {
	r.buf[r.total%uint64(len(r.buf))] = e
	r.total++
}

// events is a grow-on-record "ring": the telemetry anti-pattern.
var events []span

// recordGrowing appends into package-level storage from the hot path.
func recordGrowing(e span) {
	events = append(events, e) // want "may grow fresh heap"
}

// kernel is reachable from Run: its allocations are violations.
func kernel(ws *workspace.Arena, n int) {
	buf := make([]complex128, n) // want "bypasses the arena"
	var acc []float64
	for i := 0; i < n; i++ {
		acc = append(acc, float64(i)) // want "may grow fresh heap"
	}
	_ = buf
	_ = acc
	ok := ws.Complex(n) // arena scratch: fine
	_ = ok
	sanctioned := make([]uint8, n) //ltephy:alloc-ok — decoded payload escapes by design
	_ = sanctioned
}

// fill appends into a caller-provided buffer: the sanctioned pattern.
func fill(dst []float64, n int) []float64 {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, float64(i))
	}
	return dst
}

// describe boxes its arguments into fmt's ...any variadic.
func describe(n int) string {
	return fmt.Sprintf("n=%d", n) // want "boxes arguments"
}

// guarded allocates only on the already-fatal panic path: exempt.
func guarded(ws *workspace.Arena, n int) {
	if n < 0 {
		panic(fmt.Sprintf("bad length %d", n))
	}
	_ = ws.Float(n)
}

// warmTable is memoised one-time construction, excluded by annotation —
// and the walk must not traverse through it into buildTable.
//
//ltephy:coldpath — table built once per process, cached thereafter.
func warmTable(n int) []float64 {
	return buildTable(n)
}

// buildTable is only reachable through the coldpath function: no
// diagnostics even though it allocates.
func buildTable(n int) []float64 {
	out := make([]float64, n)
	return out
}

// coldHelper is not reachable from any Run: allocations are fine.
func coldHelper(n int) []int {
	return make([]int, n)
}

func sink(s string) { _ = s }
