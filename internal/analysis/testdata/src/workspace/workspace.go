// Package workspace is a stub of ltephy/internal/phy/workspace for
// analyzer fixtures: same package name, type names and method shapes, so
// the analyzers' name-based matching treats it as the real arena.
package workspace

type Arena struct{}

type Mark struct{ c, f, u int }

func New() *Arena { return &Arena{} }

func (a *Arena) Complex(n int) []complex128 { return make([]complex128, n) }
func (a *Arena) Float(n int) []float64      { return make([]float64, n) }
func (a *Arena) Bytes(n int) []uint8        { return make([]uint8, n) }
func (a *Arena) Mark() Mark                 { return Mark{} }
func (a *Arena) Release(m Mark)             {}
func (a *Arena) Reset()                     {}

// Floats is the generic carve: a package function, Arena first.
func Floats[F float32 | float64](a *Arena, n int) []F { return make([]F, n) }
