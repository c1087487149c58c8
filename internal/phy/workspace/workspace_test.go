package workspace

import "testing"

func TestGrabZeroedAndSized(t *testing.T) {
	a := New()
	c := a.Complex(100)
	if len(c) != 100 || cap(c) != 100 {
		t.Fatalf("Complex(100): len=%d cap=%d", len(c), cap(c))
	}
	for i := range c {
		c[i] = complex(float64(i), 1)
	}
	f := a.Float(7)
	if len(f) != 7 || cap(f) != 7 {
		t.Fatalf("Float(7): len=%d cap=%d", len(f), cap(f))
	}
	b := a.Bytes(3)
	if len(b) != 3 || cap(b) != 3 {
		t.Fatalf("Bytes(3): len=%d cap=%d", len(b), cap(b))
	}
	// Reuse after Reset must hand back zeroed memory even though the first
	// user dirtied it.
	a.Reset()
	c2 := a.Complex(100)
	for i, v := range c2 {
		if v != 0 {
			t.Fatalf("recycled slice not zeroed at %d: %v", i, v)
		}
	}
}

func TestDistinctRegions(t *testing.T) {
	a := New()
	x := a.Complex(10)
	y := a.Complex(10)
	x[9] = 1
	y[0] = 2
	if x[9] != 1 || y[0] != 2 {
		t.Fatal("regions overlap")
	}
	// Append beyond capacity must not run into y's region.
	x = append(x, 42)
	if y[0] != 2 {
		t.Fatal("append on x corrupted y")
	}
}

func TestMarkReleaseLIFO(t *testing.T) {
	a := New()
	outer := a.Complex(8)
	m := a.Mark()
	inner := a.Float(16)
	_ = inner
	a.Release(m)
	// outer must survive the release; a fresh grab reuses inner's region.
	outer[0] = 5
	inner2 := a.Float(16)
	if len(inner2) != 16 {
		t.Fatal("reuse after release failed")
	}
	if outer[0] != 5 {
		t.Fatal("release damaged memory allocated before the mark")
	}
}

func TestSteadyStateZeroAllocArena(t *testing.T) {
	a := New()
	// Warm up: force growth across several sizes, including one larger
	// than the initial chunk.
	warm := func() {
		m := a.Mark()
		_ = a.Complex(3000)
		_ = a.Complex(17)
		_ = a.Float(5000)
		_ = a.Bytes(100)
		a.Release(m)
	}
	warm()
	allocs := testing.AllocsPerRun(100, warm)
	if allocs != 0 {
		t.Errorf("steady-state arena cycle allocates %.1f times", allocs)
	}
}

func TestNilArenaFallsBackToMake(t *testing.T) {
	var a *Arena
	c := a.Complex(4)
	f := a.Float(4)
	b := a.Bytes(4)
	if len(c) != 4 || len(f) != 4 || len(b) != 4 {
		t.Fatal("nil arena fallback sizes wrong")
	}
	a.Release(a.Mark()) // must not panic
	a.Reset()
	if a.Footprint() != 0 {
		t.Fatal("nil arena footprint nonzero")
	}
}

func TestFootprintGrowsThenStabilises(t *testing.T) {
	a := New()
	_ = a.Complex(100)
	fp1 := a.Footprint()
	if fp1 == 0 {
		t.Fatal("footprint zero after allocation")
	}
	a.Reset()
	_ = a.Complex(100)
	if a.Footprint() != fp1 {
		t.Errorf("footprint changed on steady-state reuse: %d -> %d", fp1, a.Footprint())
	}
}

func TestLargeRequestAfterSmallChunk(t *testing.T) {
	a := New()
	_ = a.Bytes(1) // creates the minimum chunk
	big := a.Bytes(1 << 16)
	if len(big) != 1<<16 {
		t.Fatal("large request failed")
	}
	a.Reset()
	// After reset, small then large again must reuse both chunks.
	_ = a.Bytes(1)
	big2 := a.Bytes(1 << 16)
	if len(big2) != 1<<16 {
		t.Fatal("large request after reset failed")
	}
}

// TestFloatsCarvesByWidth pins the generic carve: each width draws from
// its own stack (a float32 carve does not move the float64 stack), the
// slice is zeroed with capacity n, a nil arena falls back to make, and a
// steady-state carve allocates nothing.
func TestFloatsCarvesByWidth(t *testing.T) {
	a := New()
	m := a.Mark()
	f32 := Floats[float32](a, 7)
	f32[0] = 1
	if a.f64.off != 0 || a.f32.off != 7 {
		t.Fatalf("float32 carve moved stacks to f32=%d f64=%d", a.f32.off, a.f64.off)
	}
	f64 := Floats[float64](a, 5)
	if len(f64) != 5 || cap(f64) != 5 || a.f64.off != 5 {
		t.Fatalf("float64 carve: len %d cap %d f64 offset %d", len(f64), cap(f64), a.f64.off)
	}
	a.Release(m)
	if again := Floats[float32](a, 7); again[0] != 0 {
		t.Fatal("re-carved float32 plane not zeroed")
	}
	if got := Floats[float64](nil, 3); len(got) != 3 {
		t.Fatalf("nil-arena carve has %d elements, want 3", len(got))
	}
	a.Reset()
	if allocs := testing.AllocsPerRun(100, func() {
		m := a.Mark()
		_ = Floats[float32](a, 64)
		_ = Floats[float64](a, 64)
		a.Release(m)
	}); allocs != 0 {
		t.Errorf("steady-state generic carve allocates %.1f times", allocs)
	}
}
