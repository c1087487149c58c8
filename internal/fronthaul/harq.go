package fronthaul

import (
	"fmt"
	"sort"
	"sync"

	"ltephy/internal/phy/modulation"
	"ltephy/internal/uplink"
)

// harqLedger is the server-side HARQ soft-buffer store: one
// uplink.HARQProcess per (cell, user) slot, fed from the result hook with
// the soft bits of every CRC-failed transmission. A retransmission
// (wire RV flag != 0) accumulates into the slot's mother buffer; when the
// combined decode verifies, the slot retires and the KPI records the
// block as delivered.
//
// The ledger is what live cell migration checkpoints: mother-buffer
// accumulation is plain float64 addition in a fixed per-user order, so a
// snapshot/restore round trip continues bit-identically on the target
// process (TestMigrationBitIdentity pins this).
//
// Ordering: entries are keyed per user, and LTE's HARQ round trip (8
// subframes) guarantees a user's retransmission never overlaps its
// previous transmission in flight — the generator-side contract this
// ledger inherits. Results of *different* users arrive concurrently from
// worker goroutines; the mutex serialises the map, and per-user order is
// the transport's frame order.
type harqLedger struct {
	cfg uplink.ReceiverConfig

	mu      sync.Mutex
	entries map[uint32]*harqEntry
}

// harqEntry is one user's active soft-buffer slot.
type harqEntry struct {
	params uplink.UserParams
	proc   *uplink.HARQProcess
}

func newHARQLedger(cfg uplink.ReceiverConfig) *harqLedger {
	return &harqLedger{cfg: cfg, entries: map[uint32]*harqEntry{}}
}

func harqKey(cell uint16, user int) uint32 {
	return uint32(cell)<<16 | uint32(user)&0xffff
}

// absorb folds one CRC-failed transmission into the user's soft buffer
// (creating it on a first transmission) and attempts the combined
// decode. It returns the recovered payload when the combined CRC
// verifies, retiring the slot.
//
// Runs on worker goroutines via the result hook — off the ingest hot
// path and only for CRC failures, so allocation here is acceptable.
// r.SoftBits is borrowed from the worker's job: Absorb folds it into the
// slot's own mother buffer before the hook returns.
func (l *harqLedger) absorb(r uplink.UserResult) ([]uint8, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := harqKey(r.Cell, r.UserID)
	e := l.entries[k]
	if r.RV == 0 || e == nil || e.params != r.Params {
		f, err := uplink.NewTransportFormatRate(r.Params, l.cfg.Turbo, l.cfg.CodeRate)
		if err != nil {
			return nil, false
		}
		proc, err := f.NewHARQCfg(l.cfg)
		if err != nil {
			return nil, false
		}
		e = &harqEntry{params: r.Params, proc: proc}
		l.entries[k] = e
	}
	payload, ok, err := e.proc.Absorb(r.SoftBits, int(r.RV))
	if err != nil {
		delete(l.entries, k)
		return nil, false
	}
	if ok {
		delete(l.entries, k)
		return payload, true
	}
	return nil, false
}

// clear retires a user's slot (its block was delivered without
// combining, so any stale soft state is obsolete).
func (l *harqLedger) clear(cell uint16, user int) {
	l.mu.Lock()
	delete(l.entries, harqKey(cell, user))
	l.mu.Unlock()
}

// HARQState is one user's checkpointable soft-buffer state.
type HARQState struct {
	User   int
	PRB    int
	Layers int
	Mod    modulation.Scheme
	Rounds int
	// Mother is the accumulated mother-rate LLR buffer (float64 bits are
	// preserved exactly on the wire, so restore is bit-identical).
	Mother []float64
}

// snapshotCell extracts every active slot of one cell, sorted by user id
// so the snapshot encoding is deterministic.
func (l *harqLedger) snapshotCell(cell uint16) []HARQState {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []HARQState
	for k, e := range l.entries {
		if uint16(k>>16) != cell {
			continue
		}
		out = append(out, HARQState{
			User:   e.params.ID,
			PRB:    e.params.PRB,
			Layers: e.params.Layers,
			Mod:    e.params.Mod,
			Rounds: e.proc.Rounds(),
			Mother: append([]float64(nil), e.proc.Mother()...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// restoreCell installs a cell's checkpointed slots, replacing any
// existing state for that cell. Every entry is built and validated
// before the live map is touched, so a failed restore leaves the
// ledger unchanged rather than with partial cell state.
func (l *harqLedger) restoreCell(cell uint16, states []HARQState) error {
	fresh := make(map[uint32]*harqEntry, len(states))
	for _, st := range states {
		p := uplink.UserParams{ID: st.User, PRB: st.PRB, Layers: st.Layers, Mod: st.Mod}
		f, err := uplink.NewTransportFormatRate(p, l.cfg.Turbo, l.cfg.CodeRate)
		if err != nil {
			return fmt.Errorf("fronthaul: HARQ restore user %d: %w", st.User, err)
		}
		proc, err := f.RestoreHARQCfg(l.cfg, st.Rounds, st.Mother)
		if err != nil {
			return fmt.Errorf("fronthaul: HARQ restore user %d: %w", st.User, err)
		}
		fresh[harqKey(cell, st.User)] = &harqEntry{params: p, proc: proc}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for k := range l.entries {
		if uint16(k>>16) == cell {
			delete(l.entries, k)
		}
	}
	for k, e := range fresh {
		l.entries[k] = e
	}
	return nil
}

// clearCell drops every slot of one cell (migration release).
func (l *harqLedger) clearCell(cell uint16) {
	l.mu.Lock()
	for k := range l.entries {
		if uint16(k>>16) == cell {
			delete(l.entries, k)
		}
	}
	l.mu.Unlock()
}
