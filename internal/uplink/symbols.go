package uplink

import (
	"sync"

	"ltephy/internal/phy/interleave"
)

// blockCache memoises symbol interleavers by (length, columns); user
// allocations repeat heavily across subframes (the paper reuses ten input
// data sets), so the permutations are shared. RWMutex-guarded so cache
// hits don't box the key — the lookup runs once per user per subframe on
// the allocation-free hot path.
var (
	blockMu    sync.RWMutex
	blockCache = map[[2]int]*interleave.Block{}
)

// getBlock is a double-checked RWMutex cache: steady state is one
// uncontended RLock over a map read; the write lock is first-sight-only.
//
//ltephy:blocking-ok
func getBlock(n, cols int) *interleave.Block {
	key := [2]int{n, cols}
	blockMu.RLock()
	b := blockCache[key]
	blockMu.RUnlock()
	if b != nil {
		return b
	}
	b = interleave.New(n, cols)
	blockMu.Lock()
	if cached, ok := blockCache[key]; ok {
		b = cached
	} else {
		blockCache[key] = b
	}
	blockMu.Unlock()
	return b
}

// InterleaveSymbols applies the transmit-side symbol interleaver. Exposed
// for the synthetic transmitter (internal/uplink/tx).
func InterleaveSymbols(cfg ReceiverConfig, dst, src []complex128) {
	interleave.Interleave(getBlock(len(src), cfg.InterleaverColumns), dst, src)
}

// deinterleaveSymbols inverts InterleaveSymbols (the paper's Fig. 3
// "Deinterleave" kernel, run before soft demapping) on one split plane:
// applying the same permutation to the re and im planes independently is
// exactly the complex deinterleave.
func deinterleaveSymbols[T any](cfg ReceiverConfig, dst, src []T) {
	interleave.Deinterleave(getBlock(len(src), cfg.InterleaverColumns), dst, src)
}
