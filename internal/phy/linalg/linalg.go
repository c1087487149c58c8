// Package linalg provides the small dense complex matrix work the MIMO
// combiner needs: the per-subcarrier MMSE weight solve
//
//	W = (H^H H + sigma^2 I)^{-1} H^H
//
// and its interference-whitened IRC form. Matrices are at most 8x8 (up to
// four layers and eight receive antennas), and the matrix being inverted
// is Hermitian positive definite by construction, so one Cholesky-based
// solver over split re/im planes (solve.go), generic over float32 and
// float64, serves both receivers. This file holds the complex128 Matrix
// view of it; everything is allocation-free because the weight solve runs
// once per subcarrier.
package linalg

import (
	"errors"
	"fmt"
)

// Matrix is a dense row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// At returns the element at row r, column c.
func (m Matrix) At(r, c int) complex128 { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v complex128) { m.Data[r*m.Cols+c] = v }

// ErrSingular is returned by Solve when the regularised Gram matrix is not
// numerically positive definite (a NaN channel estimate, or a singular one
// with no loading). It is a preallocated sentinel so a per-subcarrier
// caller can take the error path without heap allocation.
var ErrSingular = errors.New("linalg: singular matrix")

// MMSEWorkspace holds the split-plane scratch for repeated MMSE solves of
// one shape over Matrix values. Not safe for concurrent use; each worker
// task owns its own workspace.
type MMSEWorkspace struct {
	ant, layers int
	hRe, hIm    []float64 // ant x layers
	wRe, wIm    []float64 // layers x ant
}

// NewMMSEWorkspace returns a workspace for ant receive antennas and the
// given layer count.
func NewMMSEWorkspace(ant, layers int) *MMSEWorkspace {
	checkShape(ant, layers)
	planes := make([]float64, 4*ant*layers)
	al := ant * layers
	return &MMSEWorkspace{
		ant: ant, layers: layers,
		hRe: planes[:al], hIm: planes[al : 2*al],
		wRe: planes[2*al : 3*al], wIm: planes[3*al:],
	}
}

// Solve computes the MMSE combining matrix W = (H^H H + nv I)^{-1} H^H into
// dst (layers x ant). h is the ant x layers channel matrix and nv the noise
// variance. It is MMSESolve at float64 on the matrices' split planes; a
// regularised Gram matrix that is not positive definite is reported as
// ErrSingular.
func (w *MMSEWorkspace) Solve(dst *Matrix, h Matrix, nv float64) error {
	if h.Rows != w.ant || h.Cols != w.layers || dst.Rows != w.layers || dst.Cols != w.ant {
		panic("linalg: MMSE Solve shape mismatch")
	}
	for i, v := range h.Data {
		w.hRe[i], w.hIm[i] = real(v), imag(v)
	}
	if !MMSESolve(w.wRe, w.wIm, w.hRe, w.hIm, w.ant, w.layers, nv) {
		return ErrSingular
	}
	for i := range dst.Data {
		dst.Data[i] = complex(w.wRe[i], w.wIm[i])
	}
	return nil
}

// ApplyWeights computes x = W*y for one subcarrier: w is layers x ant,
// y has ant entries, x has layers entries.
func ApplyWeights(x []complex128, w Matrix, y []complex128) {
	if len(x) != w.Rows || len(y) != w.Cols {
		panic("linalg: ApplyWeights shape mismatch")
	}
	for l := 0; l < w.Rows; l++ {
		var sum complex128
		row := w.Data[l*w.Cols : (l+1)*w.Cols]
		for a, v := range y {
			sum += row[a] * v
		}
		x[l] = sum
	}
}
