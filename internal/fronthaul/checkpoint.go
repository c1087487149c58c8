package fronthaul

// Cell checkpointing and the drain barrier — the data-plane half of live
// cell migration (DESIGN.md §13). A migration is drain → checkpoint →
// restore (target) → release (source): DrainCell stops admitting new
// subframes and waits for the in-flight ones to complete; CheckpointCell
// serialises the cell's progress (admission state, activity estimates,
// cumulative KPI counters, HARQ soft buffers) into a compact
// self-validating binary snapshot; RestoreCell installs it on the target
// process; ReleaseCell clears the source so the fleet KPI rollup counts
// every block exactly once.
//
// Everything the snapshot carries is deterministic state: virtual-time
// admission, float64 HARQ mother accumulation and integer KPI counters
// all evolve identically under the same frame sequence, so a migrated
// cell's final checkpoint is byte-identical to an unmigrated run's
// (TestMigrationBitIdentity pins this).
//
// Cold path throughout: once per migration or checkpoint round.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"time"

	"ltephy/internal/obs"
	"ltephy/internal/obs/kpi"
	"ltephy/internal/phy/modulation"
)

// Snapshot layout (little-endian):
//
//	off  size  field
//	0    4     magic "LTCK"
//	4    1     version (1)
//	5    2     cell index
//	7    1     admission started flag (0 or 1)
//	8    8     admission lastSeq (int64)
//	16   8     admission budget (float64 bits)
//	24   8     offeredEst (float64 bits)
//	32   8     admittedEst (float64 bits)
//	40   8     grantedEst (float64 bits)
//	48   ...   KPI block: firstSeq, lastSeq, overflow (int64),
//	           cell counters (5 x int64), nUsers (u32),
//	           then per user: id (u32) + 5 x int64
//	...  ...   HARQ block: nStates (u32), then per state:
//	           user (u32), prb (u32), layers (u8), mod (u8),
//	           rounds (u32), motherLen (u32), mother (float64 x len)
//	...  4     IEEE CRC-32 of all preceding bytes
const (
	checkpointMagic   = "LTCK"
	checkpointVersion = 1
)

// Checkpoint decode errors.
var (
	// ErrCheckpoint reports a malformed or corrupted snapshot.
	ErrCheckpoint = errors.New("fronthaul: bad checkpoint")
	// ErrNotDraining reports a checkpoint attempted on a live cell.
	ErrNotDraining = errors.New("fronthaul: cell not drained")
	// ErrDrainTimeout reports in-flight subframes outlasting the drain
	// window.
	ErrDrainTimeout = errors.New("fronthaul: drain timeout")
)

// CellCheckpoint is a decoded snapshot — the in-memory form the codec
// round-trips.
type CellCheckpoint struct {
	Cell        uint16
	Admission   AdmissionState
	OfferedEst  float64
	AdmittedEst float64
	GrantedEst  float64
	KPI         kpi.CellState
	HARQ        []HARQState
}

func put64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func putI64(b []byte, v int64) []byte { return put64(b, uint64(v)) }

func putF64(b []byte, v float64) []byte { return put64(b, math.Float64bits(v)) }

func putCounters(b []byte, c kpi.Counters) []byte {
	b = putI64(b, c.CrcPass)
	b = putI64(b, c.CrcFail)
	b = putI64(b, c.Dtx)
	b = putI64(b, c.Skipped)
	return putI64(b, c.Bits)
}

// Encode serialises the checkpoint. The output is fully deterministic:
// users and HARQ slots are emitted in ascending user order and every
// float is written as its exact bit pattern.
func (ck *CellCheckpoint) Encode() []byte {
	b := make([]byte, 0, 256)
	b = append(b, checkpointMagic...)
	b = append(b, checkpointVersion)
	b = binary.LittleEndian.AppendUint16(b, ck.Cell)
	if ck.Admission.Started {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = putI64(b, ck.Admission.LastSeq)
	b = putF64(b, ck.Admission.Budget)
	b = putF64(b, ck.OfferedEst)
	b = putF64(b, ck.AdmittedEst)
	b = putF64(b, ck.GrantedEst)

	b = putI64(b, ck.KPI.FirstSeq)
	b = putI64(b, ck.KPI.LastSeq)
	b = putI64(b, ck.KPI.Overflow)
	b = putCounters(b, ck.KPI.Cell)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ck.KPI.Users)))
	for _, u := range ck.KPI.Users {
		b = binary.LittleEndian.AppendUint32(b, uint32(u.User))
		b = putCounters(b, u.Counters)
	}

	b = binary.LittleEndian.AppendUint32(b, uint32(len(ck.HARQ)))
	for _, h := range ck.HARQ {
		b = binary.LittleEndian.AppendUint32(b, uint32(h.User))
		b = binary.LittleEndian.AppendUint32(b, uint32(h.PRB))
		b = append(b, uint8(h.Layers), uint8(h.Mod))
		b = binary.LittleEndian.AppendUint32(b, uint32(h.Rounds))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(h.Mother)))
		for _, m := range h.Mother {
			b = putF64(b, m)
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// reader is a bounds-checked little-endian cursor over a snapshot.
type ckReader struct {
	b   []byte
	off int
	err bool
}

func (r *ckReader) take(n int) []byte {
	if r.err || r.off+n > len(r.b) {
		r.err = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *ckReader) u8() uint8 {
	if v := r.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (r *ckReader) u16() uint16 {
	if v := r.take(2); v != nil {
		return binary.LittleEndian.Uint16(v)
	}
	return 0
}

func (r *ckReader) u32() uint32 {
	if v := r.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (r *ckReader) i64() int64 {
	if v := r.take(8); v != nil {
		return int64(binary.LittleEndian.Uint64(v))
	}
	return 0
}

func (r *ckReader) f64() float64 {
	if v := r.take(8); v != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(v))
	}
	return 0
}

func (r *ckReader) counters() kpi.Counters {
	return kpi.Counters{
		CrcPass: r.i64(), CrcFail: r.i64(), Dtx: r.i64(),
		Skipped: r.i64(), Bits: r.i64(),
	}
}

// maxCheckpointSlots bounds the decoded user/HARQ table sizes so a
// corrupted length field cannot drive allocation.
const maxCheckpointSlots = 1 << 16

// DecodeCheckpoint parses and validates a snapshot.
func DecodeCheckpoint(b []byte) (*CellCheckpoint, error) {
	if len(b) < 8+4 {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", ErrCheckpoint, len(b))
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCheckpoint)
	}
	if string(body[:4]) != checkpointMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrCheckpoint, body[:4])
	}
	if body[4] != checkpointVersion {
		return nil, fmt.Errorf("%w: version %d", ErrCheckpoint, body[4])
	}
	r := &ckReader{b: body, off: 5}
	ck := &CellCheckpoint{Cell: r.u16()}
	started := r.u8()
	if started > 1 {
		return nil, fmt.Errorf("%w: admission started flag %d", ErrCheckpoint, started)
	}
	ck.Admission.Started = started == 1
	ck.Admission.LastSeq = r.i64()
	ck.Admission.Budget = r.f64()
	ck.OfferedEst = r.f64()
	ck.AdmittedEst = r.f64()
	ck.GrantedEst = r.f64()

	ck.KPI.FirstSeq = r.i64()
	ck.KPI.LastSeq = r.i64()
	ck.KPI.Overflow = r.i64()
	ck.KPI.Cell = r.counters()
	nUsers := r.u32()
	if nUsers > maxCheckpointSlots {
		return nil, fmt.Errorf("%w: %d user slots", ErrCheckpoint, nUsers)
	}
	for i := uint32(0); i < nUsers && !r.err; i++ {
		u := kpi.UserCounters{User: int(r.u32())}
		u.Counters = r.counters()
		ck.KPI.Users = append(ck.KPI.Users, u)
	}

	nStates := r.u32()
	if nStates > maxCheckpointSlots {
		return nil, fmt.Errorf("%w: %d HARQ slots", ErrCheckpoint, nStates)
	}
	for i := uint32(0); i < nStates && !r.err; i++ {
		h := HARQState{
			User: int(r.u32()),
			PRB:  int(r.u32()),
		}
		h.Layers = int(r.u8())
		h.Mod = modulation.Scheme(r.u8())
		h.Rounds = int(r.u32())
		motherLen := r.u32()
		if int(motherLen) > (len(body)-r.off)/8+1 {
			return nil, fmt.Errorf("%w: mother length %d", ErrCheckpoint, motherLen)
		}
		h.Mother = make([]float64, motherLen)
		for j := range h.Mother {
			h.Mother[j] = r.f64()
		}
		ck.HARQ = append(ck.HARQ, h)
	}
	if r.err || r.off != len(body) {
		return nil, fmt.Errorf("%w: truncated or trailing bytes", ErrCheckpoint)
	}
	return ck, nil
}

// DrainCell stops the cell admitting new subframes (they are answered
// AckRedirect) and waits until every in-flight subframe has completed
// and acked, up to timeout (Config.DrainTimeout when <= 0). On timeout
// the cell is left draining — the caller resumes or retries. Idempotent:
// draining an already-drained cell just re-runs the barrier.
//
// Blocking by design: the drain IS a wait-for-quiescence barrier, and it
// only ever runs on the control plane.
//
//ltephy:coldpath
//ltephy:blocking-ok
func (s *Server) DrainCell(cellID int, timeout time.Duration) error {
	c, err := s.controlCell(cellID)
	if err != nil {
		return err
	}
	if timeout <= 0 {
		timeout = s.cfg.DrainTimeout
	}
	// Flip under c.mu: the ingest re-checks draining inside its admission
	// section, so once this unlock happens no further frame can increment
	// inflight.
	c.mu.Lock()
	c.draining.Store(true)
	c.mu.Unlock()
	deadline := obs.Nanotime() + timeout.Nanoseconds()
	for c.inflight.Load() > 0 {
		if obs.Nanotime() > deadline {
			return fmt.Errorf("%w: cell %d, %d subframes in flight after %v",
				ErrDrainTimeout, cellID, c.inflight.Load(), timeout)
		}
		runtime.Gosched()
	}
	return nil
}

// ResumeCell lifts a drain: the cell admits subframes again. Used after
// a checkpoint round that does not migrate the cell.
func (s *Server) ResumeCell(cellID int) error {
	c, err := s.controlCell(cellID)
	if err != nil {
		return err
	}
	c.draining.Store(false)
	return nil
}

// CellDraining reports whether the cell is drained/redirecting.
func (s *Server) CellDraining(cellID int) bool {
	c, err := s.controlCell(cellID)
	return err == nil && c.draining.Load()
}

// CheckpointCell serialises a drained cell's progress. The cell must be
// draining with no subframes in flight (DrainCell returned nil), or the
// snapshot could tear across a concurrent completion.
func (s *Server) CheckpointCell(cellID int) ([]byte, error) {
	c, err := s.controlCell(cellID)
	if err != nil {
		return nil, err
	}
	if !c.draining.Load() || c.inflight.Load() > 0 {
		return nil, fmt.Errorf("%w: cell %d", ErrNotDraining, cellID)
	}
	ck := &CellCheckpoint{Cell: c.id}
	c.mu.Lock()
	ck.Admission = c.adm.State()
	ck.OfferedEst = c.offeredEst
	ck.AdmittedEst = c.admittedEst
	ck.GrantedEst = c.grantedEst
	c.mu.Unlock()
	ck.KPI = s.kpi.ExportCell(cellID)
	if s.harq != nil {
		ck.HARQ = s.harq.snapshotCell(c.id)
	}
	return ck.Encode(), nil
}

// RestoreCell installs a snapshot on this server's cell and opens it for
// traffic (clears draining): admission continues from the checkpointed
// sequence — replayed frames at or below it are acknowledged as
// duplicates — and the KPI/HARQ state carries over so accounting and
// soft combining continue exactly where the source stopped.
func (s *Server) RestoreCell(cellID int, snapshot []byte) error {
	c, err := s.controlCell(cellID)
	if err != nil {
		return err
	}
	ck, err := DecodeCheckpoint(snapshot)
	if err != nil {
		return err
	}
	if int(ck.Cell) != cellID {
		return fmt.Errorf("%w: snapshot for cell %d restored onto cell %d",
			ErrCheckpoint, ck.Cell, cellID)
	}
	if s.harq != nil {
		if err := s.harq.restoreCell(c.id, ck.HARQ); err != nil {
			return err
		}
	} else if len(ck.HARQ) > 0 {
		return fmt.Errorf("fronthaul: snapshot carries HARQ state but HARQ is disabled")
	}
	s.kpi.RestoreCell(cellID, ck.KPI)
	c.mu.Lock()
	c.adm.Restore(ck.Admission)
	c.offeredEst = ck.OfferedEst
	c.admittedEst = ck.AdmittedEst
	c.grantedEst = ck.GrantedEst
	c.mu.Unlock()
	c.draining.Store(false)
	return nil
}

// ReleaseCell completes a migration on the source process: the snapshot
// carried the cell's KPI counters, HARQ buffers and admission progress
// to the target, so the source clears them (keeping them would
// double-book the fleet rollup) and leaves the cell draining — any
// straggler frame is still answered AckRedirect.
func (s *Server) ReleaseCell(cellID int) error {
	c, err := s.controlCell(cellID)
	if err != nil {
		return err
	}
	if !c.draining.Load() || c.inflight.Load() > 0 {
		return fmt.Errorf("%w: cell %d", ErrNotDraining, cellID)
	}
	s.kpi.ResetCell(cellID)
	if s.harq != nil {
		s.harq.clearCell(c.id)
	}
	c.mu.Lock()
	c.adm.Restore(AdmissionState{})
	c.offeredEst = 0
	c.admittedEst = 0
	c.grantedEst = 0
	c.mu.Unlock()
	return nil
}

// controlCell resolves a control-plane cell index.
func (s *Server) controlCell(cellID int) (*cell, error) {
	if cellID < 0 || cellID >= len(s.cells) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownCell, cellID)
	}
	return s.cells[cellID], nil
}
