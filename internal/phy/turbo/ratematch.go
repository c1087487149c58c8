package turbo

import (
	"fmt"
	"math"
	"sync"
)

// Rate matching (TS 36.212 §5.1.4.1) adapts a rate-1/3 mother codeword to
// any target length E: the three output streams are sub-block interleaved,
// collected into a circular buffer (systematic first, then parities
// interlaced), and E bits are read starting at a redundancy-version-
// dependent offset, wrapping as needed (puncturing when E < buffer,
// repetition when E > buffer).
//
// De-rate-matching inverts the mapping on soft values, accumulating LLRs
// for repeated bits — which also provides HARQ-style incremental-
// redundancy combining when called repeatedly with different redundancy
// versions.
//
// Deviation from the spec, documented in DESIGN.md: the twelve trellis
// termination bits are appended four per stream in encoder order rather
// than 36.212's exact tail interlacing, and no soft-buffer limitation
// (N_cb < K_w) is modelled. Both ends of this implementation share the
// mapping, and the interleaver/circular-buffer/rv structure is faithful.

// subBlockColumns is the sub-block interleaver width (36.212: C = 32).
const subBlockColumns = 32

// subBlockPerm is the inter-column permutation pattern of Table 5.1.4-1.
var subBlockPerm = [subBlockColumns]int{
	0, 16, 8, 24, 4, 20, 12, 28, 2, 18, 10, 26, 6, 22, 14, 30,
	1, 17, 9, 25, 5, 21, 13, 29, 3, 19, 11, 27, 7, 23, 15, 31,
}

// MaxRVs is the number of redundancy versions (rv 0..3).
const MaxRVs = 4

// RateMatcher precomputes the circular-buffer mapping for one block size.
type RateMatcher struct {
	k    int // info bits
	d    int // per-stream length K+4
	rows int // sub-block interleaver rows
	kpi  int // padded per-stream length rows*32
	kw   int // circular buffer length 3*kpi
	// codeToW[i] is the circular-buffer position of mother-codeword bit i
	// (in the Encode layout [sys K | p1 K | p2 K | tails 12]).
	codeToW []int32
	// wToCode[w] is the inverse (-1 for dummy padding positions).
	wToCode []int32
	// txCode is wToCode with the dummies removed: the mother-codeword bit
	// behind each position the circular buffer actually transmits, in
	// buffer order. txStart[rv] is the rank in it of redundancy version
	// rv's offset k0, so a transmission is a straight walk of txCode from
	// there, wrapping at its end.
	txCode  []int32
	txStart [MaxRVs]int
}

// rmCache is RWMutex-guarded (not a sync.Map) so cache hits don't box the
// key and stay allocation-free.
var (
	rmMu    sync.RWMutex
	rmCache = map[int]*RateMatcher{}
)

// NewRateMatcher returns the (cached) rate matcher for info size k, which
// must be a valid interleaver size.
//
// Double-checked RWMutex cache: steady state is one uncontended RLock
// over a map read; the write lock is first-sight-only.
//
//ltephy:blocking-ok
func NewRateMatcher(k int) (*RateMatcher, error) {
	rmMu.RLock()
	rm := rmCache[k]
	rmMu.RUnlock()
	if rm != nil {
		return rm, nil
	}
	if _, err := NewCodec(k); err != nil {
		return nil, err
	}
	rm = buildRateMatcher(k)
	rmMu.Lock()
	if cached, ok := rmCache[k]; ok {
		rm = cached
	} else {
		rmCache[k] = rm
	}
	rmMu.Unlock()
	return rm, nil
}

// buildRateMatcher constructs the permutation tables; NewRateMatcher caches
// them in rmCache, so it runs once per block size for the process lifetime.
//
//ltephy:coldpath
func buildRateMatcher(k int) *RateMatcher {
	d := k + 4
	rows := (d + subBlockColumns - 1) / subBlockColumns
	kpi := rows * subBlockColumns
	rm := &RateMatcher{
		k: k, d: d, rows: rows, kpi: kpi, kw: 3 * kpi,
		codeToW: make([]int32, CodedLen(k)),
		wToCode: make([]int32, 3*kpi),
	}
	for i := range rm.wToCode {
		rm.wToCode[i] = -1
	}
	nd := kpi - d // dummy bits padded at the head of each stream

	// Streams in the Encode layout. Tail placement: four termination bits
	// per stream, encoder-1 pairs then encoder-2 pairs in order.
	streamIdx := func(stream, i int) int32 {
		if i < k {
			return int32(stream*k + i)
		}
		return int32(3*k + stream*4 + (i - k))
	}

	// v0/v1 positions: pad, column-permute, read column-major. The padded
	// element at row r, column c lands at output position u*rows + r where
	// subBlockPerm[u] == c.
	uOf := [subBlockColumns]int{}
	for u, c := range subBlockPerm {
		uOf[c] = u
	}
	place := func(stream int, wBase int, pos func(padded int) int) {
		for i := 0; i < rm.d; i++ {
			padded := i + nd
			w := wBase + pos(padded)
			code := streamIdx(stream, i)
			rm.codeToW[code] = int32(w)
			rm.wToCode[w] = code
		}
	}
	colMajor := func(padded int) int {
		r := padded / subBlockColumns
		c := padded % subBlockColumns
		return uOf[c]*rm.rows + r
	}
	// v2 uses the shifted permutation pi(k) = (P[k/R] + 32*(k%R) + 1) mod Kpi,
	// which interlaces parity 2 one position off parity 1.
	v2pos := make([]int, kpi)
	for idx := 0; idx < kpi; idx++ {
		v2pos[idx] = (subBlockPerm[idx/rm.rows] + subBlockColumns*(idx%rm.rows) + 1) % kpi
	}
	// For v2 the standard defines output position k holds padded element
	// pi(k); invert to map padded element -> output position.
	v2of := make([]int, kpi)
	for outPos, padded := range v2pos {
		v2of[padded] = outPos
	}

	// Bit collection: w[0..kpi) = v0; w[kpi+2j] = v1[j]; w[kpi+2j+1] = v2[j].
	place(0, 0, colMajor)
	for i := 0; i < rm.d; i++ {
		padded := i + nd
		// v1
		w := kpi + 2*colMajor(padded)
		code := streamIdx(1, i)
		rm.codeToW[code] = int32(w)
		rm.wToCode[w] = code
		// v2
		w2 := kpi + 2*v2of[padded] + 1
		code2 := streamIdx(2, i)
		rm.codeToW[code2] = int32(w2)
		rm.wToCode[w2] = code2
	}
	rm.txCode = make([]int32, 0, CodedLen(k))
	var k0 [MaxRVs]int
	for rv := range k0 {
		k0[rv] = rm.rvOffset(rv)
	}
	for w, code := range rm.wToCode {
		if code < 0 {
			continue
		}
		for rv, start := range k0 {
			if w < start {
				rm.txStart[rv]++
			}
		}
		rm.txCode = append(rm.txCode, code)
	}
	return rm
}

// BufferLen returns the circular buffer length K_w.
func (rm *RateMatcher) BufferLen() int { return rm.kw }

// rvOffset returns the starting position k0 < K_w for a redundancy version.
func (rm *RateMatcher) rvOffset(rv int) int {
	// 36.212: k0 = R * (2*ceil(Ncb/(8R))*rv + 2), with Ncb = Kw here.
	return rm.rows * (2*int(math.Ceil(float64(rm.kw)/(8*float64(rm.rows))))*rv + 2)
}

// txFrom returns the transmitted code indices from redundancy version rv's
// start to the end of the circular buffer; the walk continues at txCode[0].
func (rm *RateMatcher) txFrom(rv int) []int32 {
	if rv < 0 || rv >= MaxRVs {
		panic(fmt.Sprintf("turbo: redundancy version %d outside [0,%d)", rv, MaxRVs))
	}
	return rm.txCode[rm.txStart[rv]:]
}

// Match produces e output bits from a mother codeword (Encode layout).
func (rm *RateMatcher) Match(code []uint8, e, rv int) []uint8 {
	if len(code) != CodedLen(rm.k) {
		panic(fmt.Sprintf("turbo: rate match got %d bits, want %d", len(code), CodedLen(rm.k)))
	}
	if e < 1 {
		panic(fmt.Sprintf("turbo: rate match to %d bits", e))
	}
	out := make([]uint8, 0, e)
	for run := rm.txFrom(rv); len(out) < e; run = rm.txCode {
		for _, c := range run[:min(len(run), e-len(out))] {
			out = append(out, code[c])
		}
	}
	return out
}

// Accumulate de-rate-matches e soft values into mother-codeword LLRs
// (Encode layout), adding contributions for repeated bits. dst must have
// length CodedLen(k); multiple calls with different rv perform
// incremental-redundancy combining.
func (rm *RateMatcher) Accumulate(dst []float64, llr []float64, rv int) {
	if len(dst) != CodedLen(rm.k) {
		panic(fmt.Sprintf("turbo: accumulate dst has %d entries, want %d", len(dst), CodedLen(rm.k)))
	}
	for run := rm.txFrom(rv); len(llr) > 0; run = rm.txCode {
		n := min(len(run), len(llr))
		for i, c := range run[:n] {
			dst[c] += llr[i]
		}
		llr = llr[n:]
	}
}

// MinRate is the lowest supportable code rate: below the mother code's
// 1/3, repetition fills the target; this bound only guards degenerate
// requests.
const MinRate = 0.05

// MaxRate bounds puncturing: at least the systematic bits plus a minimal
// parity margin must survive.
const MaxRate = 0.92
