package lane

import (
	"encoding/binary"
	"math"
	"testing"

	"ltephy/internal/phy/workspace"
)

// FuzzLanePackUnpack proves the split-plane pack/unpack conversion is a
// bit-exact round trip at both widths for arbitrary payloads at every
// length, including odd tails: interpreting the fuzz input as raw float32
// pairs and, separately, as raw float64 pairs, Unpack(planes) ->
// complex128 -> Pack must reproduce the planes bit for bit (widening to
// float64 is exact and narrowing a widened value is the identity). NaNs
// are compared by class, not payload, since the conversion pair may
// quieten signalling NaNs. `make fuzz-smoke` runs this target.
func FuzzLanePackUnpack(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7})                       // odd tail: not a multiple of 8
	f.Add(binary.LittleEndian.AppendUint32(nil, 0x7fc00001)) // NaN payload
	f.Add(binary.LittleEndian.AppendUint32(nil, 0x7f800000)) // +Inf
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each element consumes 2*width bytes (re, im); the remainder tail
		// exercises lengths that don't divide the input evenly.
		roundTrip(t, data, 4, func(b []byte) float32 {
			return math.Float32frombits(binary.LittleEndian.Uint32(b))
		})
		roundTrip(t, data, 8, func(b []byte) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(b))
		})
	})
}

// roundTrip decodes data as width-byte (re, im) pairs and checks that
// Unpack followed by Pack returns them unchanged.
func roundTrip[F workspace.Float](t *testing.T, data []byte, width int, decode func([]byte) F) {
	n := len(data) / (2 * width)
	re := make([]F, n)
	im := make([]F, n)
	for k := 0; k < n; k++ {
		re[k] = decode(data[2*k*width:])
		im[k] = decode(data[(2*k+1)*width:])
	}
	c := make([]complex128, n)
	Unpack(c, re, im)
	gre := make([]F, n)
	gim := make([]F, n)
	Pack(gre, gim, c)
	for k := 0; k < n; k++ {
		checkBitExact(t, "re", k, re[k], gre[k])
		checkBitExact(t, "im", k, im[k], gim[k])
	}
}

func checkBitExact[F workspace.Float](t *testing.T, plane string, k int, want, got F) {
	t.Helper()
	wb, gb := math.Float64bits(float64(want)), math.Float64bits(float64(got))
	if wb == gb {
		return
	}
	// A signalling NaN may come back quiet; both must still be NaN.
	if math.IsNaN(float64(want)) && math.IsNaN(float64(got)) {
		return
	}
	t.Fatalf("%T %s[%d]: round trip %016x -> %016x", want, plane, k, wb, gb)
}
