package uplink

// SetBackendInput overwrites what the finish stage reads — the despread
// symbols (narrowed to the job's width) and the working noise variance —
// so tests can put arbitrary values in front of the demapper.
func (j *UserJob) SetBackendInput(noiseVar float64, sym func(i int) complex128) {
	j.nv = noiseVar
	for i := range j.f64.combRe {
		j.f64.combRe[i], j.f64.combIm[i] = real(sym(i)), imag(sym(i))
	}
	for i := range j.f32.combRe {
		j.f32.combRe[i], j.f32.combIm[i] = float32(real(sym(i))), float32(imag(sym(i)))
	}
}
