package hotpathalloc

import "workspace"

// genericStage reaches its kernels only through explicit instantiations,
// the call shape a generic kernel whose type parameter appears only in its
// results requires.
type genericStage struct{}

func (genericStage) Run(ws *workspace.Arena, j *job, i int) {
	_ = zeros[float32](j.n)
	_ = carved[float64](ws, j.n)
}

// zeros allocates per call; reached only as zeros[float32](…), it must
// still be walked.
func zeros[F float32 | float64](n int) []F {
	return make([]F, n) // want "bypasses the arena"
}

// carved fills a generic arena carve in place: the append stays on arena
// memory, so nothing is reported.
func carved[F float32 | float64](ws *workspace.Arena, n int) []F {
	out := workspace.Floats[F](ws, n)[:0]
	for k := 0; k < n; k++ {
		out = append(out, F(k))
	}
	return out
}
