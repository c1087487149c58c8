package modulation

import (
	"math"
	"unsafe"
)

// float is the element type the axis kernel computes in: float64 for the
// complex128 entry points and the float64 receiver, float32 for the
// float32 receiver.
type float interface{ float32 | float64 }

// abs and copysign work on T's own sign bit. unsafe.Sizeof is a constant
// in each instantiation, so the other width's branch compiles away; going
// through math.Abs(float64(x)) at float32 instead costs two conversions
// per call and ran the float32 64-QAM kernel at 7.8 ns/bit against 1.8.
func abs[T float](x T) T {
	if unsafe.Sizeof(x) == 4 {
		return T(math.Float32frombits(math.Float32bits(float32(x)) &^ (1 << 31)))
	}
	return T(math.Abs(float64(x)))
}

func copysign[T float](mag, sign T) T {
	if unsafe.Sizeof(mag) == 4 {
		m, s := math.Float32bits(float32(mag)), math.Float32bits(float32(sign))
		return T(math.Float32frombits(m&^(1<<31) | s&(1<<31)))
	}
	return T(math.Copysign(float64(mag), float64(sign)))
}

// The axis kernels. Each takes one received axis coordinate y, the
// scheme's unit level a and the LLR scale k = 4a/noiseVar, writes the axis
// bits' LLRs to o[0], o[2], ... (a symbol's I and Q bits interleave, so
// the caller passes o and o[1:]) and returns the squared distance from y to
// the nearest axis level. The LLRs are computed in T and stored widened to
// float64 — exact — because the decoder and HARQ take float64 at either
// width. Everything is a function of the fold chain
//
//	u = |y|,  m1 = u - (L/2)a,  m2 = |m1| - (L/4)a,  ...,  e = |m_last| - a
//
// for an L-level axis: each m is the signed distance to one bit's decision
// boundary after folding the axis about the previous one, so its sign is
// that bit's hard decision and |e| the distance to the nearest level.
// Where a hypothesis' nearest level changes (the LLR slope changes) the
// correction is relu(m) = (m+|m|)/2, which is exactly zero on the near side
// of the boundary: inside the innermost region every LLR is exactly k·y or
// -k·m, so the sign — the hard decision — carries no rounding of its own.

// axis2 is the QPSK axis, levels ±a: LLR(b0) = ((y+a)² - (y-a)²)/nv = k·y.
func axis2[T float](o []float64, y, a, k T) T {
	o[0] = float64(k * y)
	e := abs(y) - a
	return e * e
}

// axis4 is the 16-QAM axis, levels ±a (b1=0), ±3a (b1=1):
//
//	LLR(b0)·nv = 4a·y             |y| < 2a   (nearest +a vs -a)
//	             8a·(|y|-a)·sgn y |y| ≥ 2a   (nearest +3a vs -a)
//	LLR(b1)·nv = (|y|-3a)² - (|y|-a)² = 4a·(2a-|y|)
func axis4[T float](o []float64, y, a, k T) T {
	_ = o[2]
	u := abs(y)
	m := u - 2*a
	v := abs(m)
	o[0] = float64(copysign(k*(u+(m+v)/2), y))
	o[2] = float64(-k * m)
	e := v - a
	return e * e
}

// axis6 is the 64-QAM axis, levels ±{3a, a, 5a, 7a} for (b1,b2) =
// 00, 01, 10, 11. With u = |y|:
//
//	LLR(b0)·nv/4a = sgn y · (u + relu(u-2a) + relu(u-4a) + relu(u-6a))
//	LLR(b1)·nv/4a = 2(3a-u)  u < 2a;   4a-u  2a ≤ u < 6a;   2(5a-u)  u ≥ 6a
//	LLR(b2)·nv/4a = 2a - |u-4a|
//
// In fold terms m1 = u-4a, m2 = |m1|-2a: LLR(b2) = -k·m2, LLR(b1) =
// -k·(m1 + sgn m1 · relu(m2)), and relu(u-2a) + relu(u-6a) =
// (m1+2a) + relu(m2), which cancels exactly for u < 2a.
func axis6[T float](o []float64, y, a, k T) T {
	_ = o[4]
	u := abs(y)
	m1 := u - 4*a
	v1 := abs(m1)
	m2 := v1 - 2*a
	v2 := abs(m2)
	r2 := (m2 + v2) / 2
	o[0] = float64(copysign(k*(u+(m1+v1)/2+((m1+2*a)+r2)), y))
	o[2] = float64(-k * (m1 + copysign(r2, m1)))
	o[4] = float64(-k * m2)
	e := v2 - a
	return e * e
}
