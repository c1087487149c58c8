// Package workspace provides per-worker scratch arenas for the receiver
// hot path.
//
// The benchmark is a throughput artifact: every subframe re-runs the same
// kernel chain (channel estimation, weight solve, combining, despreading,
// demapping, decoding) on freshly sized buffers, and in the seed
// implementation nearly every kernel call performed its own
// make([]complex128, ...). At the paper's rates (a subframe every few
// milliseconds across tens of workers) that makes Go's allocator and GC —
// not arithmetic — the binding constraint. An Arena replaces those call
// sites: each worker owns one Arena and draws all transient scratch from
// it, so the steady state performs no heap allocation at all.
//
// # Ownership rules
//
// One Arena per worker, owned exclusively by that worker's goroutine —
// Arenas are NOT safe for concurrent use and never locked. The scheduler
// (internal/sched) gives every pool worker its own Arena and passes it to
// each task it executes; the serial reference receiver threads a single
// Arena through the whole chain. A task that runs on a stolen worker uses
// the thief's Arena for its scratch, never the victim's.
//
// Allocation follows stack (LIFO) discipline: callers bracket a unit of
// work with Mark/Release —
//
//	m := ws.Mark()
//	buf := ws.Complex(n)
//	... use buf ...
//	ws.Release(m)
//
// Release invalidates every slice obtained after the corresponding Mark;
// the memory is reused by later allocations (and re-zeroed on handout).
// Job-lifetime buffers are carved before task-lifetime scratch and
// released after it, which the strict stage structure of UserJob makes
// natural: per-task scratch marks nest inside the per-user mark. Reset
// releases everything at once (reset per task or per job, depending on
// which unit the caller brackets).
//
// All slices returned by an Arena are zeroed, exactly like make(), so
// kernels that accumulate (+=) into fresh buffers behave identically on
// arena and heap memory.
//
// A nil *Arena is valid everywhere and falls back to plain make() — code
// paths that have no worker arena (public API convenience wrappers, cold
// paths) share the same implementation.
package workspace

import "unsafe"

// chunkMin is the smallest chunk a stack allocates, in elements. Chosen so
// a couple of small requests don't fragment into many tiny chunks.
const chunkMin = 1 << 10

// stack is a chunked LIFO allocator for one element type. Chunks are never
// freed; once the warm-up phase has sized them, steady-state Grab calls
// only slice into existing chunks.
type stack[T any] struct {
	chunks [][]T
	ci     int // index of the chunk currently being carved
	off    int // next free element within chunks[ci]
}

// mark is a position in a stack: everything carved after it is released by
// rewinding to it.
type mark struct {
	ci, off int
}

// grab returns a zeroed slice of n elements with capacity exactly n (so
// append beyond it cannot corrupt neighbouring scratch).
func (s *stack[T]) grab(n int) []T {
	if n == 0 {
		return nil
	}
	for {
		if s.ci < len(s.chunks) {
			c := s.chunks[s.ci]
			if s.off+n <= len(c) {
				out := c[s.off : s.off+n : s.off+n]
				s.off += n
				clear(out)
				return out
			}
			if s.ci+1 < len(s.chunks) || len(c) >= n {
				// Chunk tail too small for this request (or a later chunk
				// exists): skip ahead, wasting the tail. The waste is
				// bounded by one request per chunk and disappears once
				// chunk sizes stabilise.
				s.ci++
				s.off = 0
				continue
			}
		}
		// Grow: double the last chunk size until the request fits.
		size := chunkMin
		if len(s.chunks) > 0 {
			size = 2 * len(s.chunks[len(s.chunks)-1])
		}
		for size < n {
			size *= 2
		}
		s.chunks = append(s.chunks, make([]T, size))
		s.ci = len(s.chunks) - 1
		s.off = 0
	}
}

func (s *stack[T]) mark() mark { return mark{s.ci, s.off} }

func (s *stack[T]) release(m mark) {
	s.ci, s.off = m.ci, m.off
}

// footprint returns the total elements reserved across all chunks.
func (s *stack[T]) footprint() int {
	total := 0
	for _, c := range s.chunks {
		total += len(c)
	}
	return total
}

// Arena is a per-worker scratch allocator: typed LIFO stacks
// (complex128, float64, float32, uint8, int8, int16, int32) with shared
// Mark/Release semantics. The zero value is NOT ready for use via its
// methods on a nil pointer only in the sense that nil falls back to
// make(); a &Arena{} (or New()) is fully functional.
type Arena struct {
	c128 stack[complex128]
	f64  stack[float64]
	f32  stack[float32]
	u8   stack[uint8]
	i8   stack[int8]
	i16  stack[int16]
	i32  stack[int32]
}

// Mark captures the current allocation state of all stacks.
type Mark struct {
	c128, f64, f32, u8, i8, i16, i32 mark
}

// New returns an empty Arena. Equivalent to new(Arena); provided for
// symmetry with the rest of the codebase.
func New() *Arena { return &Arena{} }

// Complex returns a zeroed []complex128 of length n (capacity n). On a nil
// Arena it falls back to make.
func (a *Arena) Complex(n int) []complex128 {
	if a == nil {
		return make([]complex128, n)
	}
	return a.c128.grab(n)
}

// Float returns a zeroed []float64 of length n (capacity n). On a nil
// Arena it falls back to make.
func (a *Arena) Float(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.f64.grab(n)
}

// Float32 returns a zeroed []float32 of length n (capacity n). On a nil
// Arena it falls back to make. The split-plane float32 lane kernels
// (internal/phy/lane) draw their re/im planes from this stack.
func (a *Arena) Float32(n int) []float32 {
	if a == nil {
		return make([]float32, n)
	}
	return a.f32.grab(n)
}

// Float is the element constraint of the split-plane receiver: its
// kernels are written once and instantiated at float64 (the default
// receiver and accuracy oracle) and float32.
type Float interface{ float32 | float64 }

// Floats returns a zeroed []F of length n (capacity n) from the stack of
// F's width — Float32 or Float — so generic kernels carve without knowing
// their width. The slice header is reinterpreted, never boxed, so the
// carve stays allocation-free.
func Floats[F Float](a *Arena, n int) []F {
	var z F
	if unsafe.Sizeof(z) == 4 {
		s := a.Float32(n)
		return unsafe.Slice((*F)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
	}
	s := a.Float(n)
	return unsafe.Slice((*F)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// Bytes returns a zeroed []uint8 of length n (capacity n). On a nil Arena
// it falls back to make.
func (a *Arena) Bytes(n int) []uint8 {
	if a == nil {
		return make([]uint8, n)
	}
	return a.u8.grab(n)
}

// Int8 returns a zeroed []int8 of length n (capacity n). On a nil Arena
// it falls back to make. The quantized turbo decoder draws its channel
// LLR and extrinsic buffers from this stack.
func (a *Arena) Int8(n int) []int8 {
	if a == nil {
		return make([]int8, n)
	}
	return a.i8.grab(n)
}

// Int16 returns a zeroed []int16 of length n (capacity n). On a nil
// Arena it falls back to make.
func (a *Arena) Int16(n int) []int16 {
	if a == nil {
		return make([]int16, n)
	}
	return a.i16.grab(n)
}

// Int32 returns a zeroed []int32 of length n (capacity n). On a nil
// Arena it falls back to make. The quantized turbo decoder's path-metric
// slabs live here.
func (a *Arena) Int32(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return a.i32.grab(n)
}

// Mark returns a checkpoint; Release with it frees everything allocated
// since. On a nil Arena the checkpoint is meaningless and Release a no-op.
func (a *Arena) Mark() Mark {
	if a == nil {
		return Mark{}
	}
	return Mark{a.c128.mark(), a.f64.mark(), a.f32.mark(), a.u8.mark(), a.i8.mark(), a.i16.mark(), a.i32.mark()}
}

// Release rewinds the arena to a checkpoint obtained from Mark. Slices
// handed out after that Mark must no longer be used: their memory will be
// recycled (and re-zeroed) by subsequent allocations. Marks must be
// released in LIFO order.
func (a *Arena) Release(m Mark) {
	if a == nil {
		return
	}
	a.c128.release(m.c128)
	a.f64.release(m.f64)
	a.f32.release(m.f32)
	a.u8.release(m.u8)
	a.i8.release(m.i8)
	a.i16.release(m.i16)
	a.i32.release(m.i32)
}

// Reset releases everything, keeping the reserved chunks for reuse.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.c128.release(mark{})
	a.f64.release(mark{})
	a.f32.release(mark{})
	a.u8.release(mark{})
	a.i8.release(mark{})
	a.i16.release(mark{})
	a.i32.release(mark{})
}

// Footprint returns the total bytes of backing memory the arena has
// reserved — the bounded, measurable per-worker memory quantity the cost
// model can reason about.
func (a *Arena) Footprint() int {
	if a == nil {
		return 0
	}
	return a.c128.footprint()*16 + a.f64.footprint()*8 + a.f32.footprint()*4 +
		a.u8.footprint() + a.i8.footprint() + a.i16.footprint()*2 + a.i32.footprint()*4
}
