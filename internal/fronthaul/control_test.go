package fronthaul

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"testing"
	"time"

	"ltephy/internal/obs/kpi"
	"ltephy/internal/uplink"
)

// startControl brings up a control listener on an existing server and
// returns a connected client.
func startControl(t *testing.T, srv *Server) *ControlClient {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.ServeControl(ln)
	c, err := DialControl("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("DialControl: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// controlServerConfig is a small single-cell server with KPI recording
// on, shared by the control-plane tests.
func controlServerConfig(ant int) Config {
	return Config{
		Cells:          1,
		Workers:        1,
		Receiver:       func() uplink.ReceiverConfig { c := uplink.DefaultConfig(); c.Antennas = ant; return c }(),
		DeadlineBudget: time.Minute,
		Predictor:      FlatPredictor{PerPRB: 1e-3},
		KPISampling:    1,
	}
}

// sampleCheckpoint is a snapshot with every section populated.
func sampleCheckpoint() *CellCheckpoint {
	return &CellCheckpoint{
		Cell:        3,
		Admission:   AdmissionState{LastSeq: 41, Budget: 0.625, Started: true},
		OfferedEst:  12.5,
		AdmittedEst: 10.25,
		GrantedEst:  11,
		KPI: kpi.CellState{
			FirstSeq: 1, LastSeq: 41, Overflow: 2,
			Cell: kpi.Counters{CrcPass: 100, CrcFail: 7, Dtx: 3, Skipped: 9, Bits: 123456},
			Users: []kpi.UserCounters{
				{User: 0, Counters: kpi.Counters{CrcPass: 60, Bits: 70000}},
				{User: 5, Counters: kpi.Counters{CrcFail: 7, Skipped: 9}},
			},
		},
		HARQ: []HARQState{
			{User: 5, PRB: 6, Layers: 1, Mod: 4, Rounds: 2, Mother: []float64{0.5, -1.25, 3}},
		},
	}
}

// TestCheckpointCodecRoundTrip: Encode/Decode is the identity, the
// output is deterministic, and corruption is rejected.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	b := ck.Encode()
	if !bytes.Equal(b, ck.Encode()) {
		t.Fatalf("encoding is not deterministic")
	}
	got, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	if got.Cell != ck.Cell || got.Admission != ck.Admission ||
		got.OfferedEst != ck.OfferedEst || got.AdmittedEst != ck.AdmittedEst ||
		got.GrantedEst != ck.GrantedEst {
		t.Fatalf("header fields diverged: %+v vs %+v", got, ck)
	}
	if !bytes.Equal(got.Encode(), b) {
		t.Fatalf("re-encode of the decoded checkpoint differs")
	}

	for i := range b {
		bad := append([]byte(nil), b...)
		bad[i] ^= 0x40
		if _, err := DecodeCheckpoint(bad); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
	if _, err := DecodeCheckpoint(b[:8]); err == nil {
		t.Fatalf("truncated snapshot accepted")
	}
}

// sealCheckpoint appends the CRC-32 trailer to a snapshot body.
func sealCheckpoint(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// FuzzDecodeCheckpoint feeds the LTCK decoder arbitrary snapshots, both as
// given and sealed with a valid CRC so that mutations reach the field
// parser. Decoding must never panic, and any snapshot it accepts must
// re-encode byte for byte: two different snapshots never decode equal.
func FuzzDecodeCheckpoint(f *testing.F) {
	valid := sampleCheckpoint().Encode()
	body := valid[:len(valid)-4]
	f.Add(valid)
	f.Add(body)
	f.Add((&CellCheckpoint{}).Encode())
	f.Add(valid[:len(valid)/2])
	flag := append([]byte(nil), body...)
	flag[7] = 2 // an "admission started" flag that is neither 0 nor 1
	f.Add(flag)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, b := range [][]byte{data, sealCheckpoint(data)} {
			ck, err := DecodeCheckpoint(b)
			if err != nil {
				continue
			}
			if re := ck.Encode(); !bytes.Equal(re, b) {
				t.Fatalf("accepted snapshot re-encodes differently:\n in %x\nout %x", b, re)
			}
		}
	})
}

// TestControlMigration drives a full migration over the wire protocol:
// drain + checkpoint on the source, restore on the target, release on
// the source — and the target continues the sequence space exactly
// where the source stopped (a replay answers AckDuplicate).
func TestControlMigration(t *testing.T) {
	const ant = 2
	src, srcAddr := startServer(t, controlServerConfig(ant))
	dst, dstAddr := startServer(t, controlServerConfig(ant))
	srcCtl := startControl(t, src)
	dstCtl := startControl(t, dst)

	users := genFrameUsers(t, ant, []int{2})
	rc := dialRaw(t, srcAddr)
	for seq := int64(0); seq < 3; seq++ {
		frame, err := AppendFrame(nil, 0, seq, users)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
		rc.send(frame)
		if a, err := rc.readAck(); err != nil || a.Status != AckDone {
			t.Fatalf("seq %d: ack=%+v err=%v", seq, a, err)
		}
	}

	if err := srcCtl.Drain(0, time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	snap, err := srcCtl.Checkpoint(0)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := dstCtl.Restore(0, snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := srcCtl.Release(0); err != nil {
		t.Fatalf("Release: %v", err)
	}

	// The drained source redirects stragglers.
	frame, err := AppendFrame(nil, 0, 3, users)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	rc.send(frame)
	if a, err := rc.readAck(); err != nil || a.Status != AckRedirect {
		t.Fatalf("straggler on source: ack=%+v err=%v", a, err)
	}

	// The target continues the sequence space: a replay of seq 2 is a
	// duplicate, seq 3 is fresh.
	rd := dialRaw(t, dstAddr)
	replay, err := AppendFrame(nil, 0, 2, users)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	rd.send(replay)
	if a, err := rd.readAck(); err != nil || a.Status != AckDuplicate {
		t.Fatalf("replay on target: ack=%+v err=%v", a, err)
	}
	rd.send(frame)
	if a, err := rd.readAck(); err != nil || a.Status != AckDone {
		t.Fatalf("fresh seq on target: ack=%+v err=%v", a, err)
	}

	// Exactly-once across the pair: the released source holds no KPI,
	// the target holds the full history.
	if st := src.KPI().ExportCell(0); !st.Cell.IsZero() {
		t.Fatalf("source KPI not cleared by release: %+v", st.Cell)
	}
	total := dst.KPI().ExportCell(0).Cell
	if got := total.CrcPass + total.CrcFail; got != 4 {
		t.Fatalf("target KPI blocks = %d, want 4 (3 migrated + 1 fresh)", got)
	}

	// Stats round-trips over the control socket too.
	st, err := dstCtl.Stats(0)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.FramesAccepted != 1 || st.FramesDuplicate != 1 {
		t.Fatalf("target stats: %+v", st)
	}
}

// TestControlErrors maps server-side failures onto typed client errors.
func TestControlErrors(t *testing.T) {
	srv, _ := startServer(t, controlServerConfig(2))
	ctl := startControl(t, srv)

	if _, err := ctl.Checkpoint(0); !errors.Is(err, ErrNotDraining) {
		t.Fatalf("checkpoint of a live cell: %v, want ErrNotDraining", err)
	}
	if err := ctl.Drain(9, time.Second); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("drain of unknown cell: %v, want ErrUnknownCell", err)
	}
	if err := ctl.Restore(0, []byte("not a snapshot")); err == nil {
		t.Fatalf("restore of garbage succeeded")
	}
	if _, err := ctl.Stats(7); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("stats of unknown cell: %v, want ErrUnknownCell", err)
	}
	// The connection survives error responses.
	if err := ctl.Drain(0, time.Second); err != nil {
		t.Fatalf("drain after errors: %v", err)
	}
	if err := ctl.Resume(0); err != nil {
		t.Fatalf("resume: %v", err)
	}
}

// TestReplayAfterConnLossIdempotent is the fronthaul ack path under
// connection loss mid-subframe: the generator's connection dies after
// frames were processed (and one frame is torn mid-write), the server
// neither blocks nor corrupts, and a full replay on a fresh connection
// is answered AckDuplicate without double-counting a single KPI block.
func TestReplayAfterConnLossIdempotent(t *testing.T) {
	const ant = 2
	srv, addr := startServer(t, controlServerConfig(ant))
	users := genFrameUsers(t, ant, []int{2})

	frames := make([][]byte, 5)
	for seq := range frames {
		f, err := AppendFrame(nil, 0, int64(seq), users)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
		frames[seq] = f
	}

	rc := dialRaw(t, addr)
	for seq, f := range frames {
		rc.send(f)
		if a, err := rc.readAck(); err != nil || a.Status != AckDone {
			t.Fatalf("seq %d: ack=%+v err=%v", seq, a, err)
		}
	}
	// Tear the connection mid-subframe: half a header, then a hard close.
	rc.send(frames[0][:FrameHeaderLen/2])
	rc.conn.Close()

	before := srv.KPI().ExportCell(0).Cell

	// Fresh connection, full replay: every frame is a known duplicate.
	rc2 := dialRaw(t, addr)
	for _, f := range frames {
		rc2.send(f)
	}
	for i := range frames {
		a, err := rc2.readAck()
		if err != nil {
			t.Fatalf("replay ack %d: %v", i, err)
		}
		if a.Status != AckDuplicate {
			t.Fatalf("replay ack %d: %+v, want duplicate", i, a)
		}
	}
	// And the stream is still live for new work.
	f, err := AppendFrame(nil, 0, 5, users)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	rc2.send(f)
	if a, err := rc2.readAck(); err != nil || a.Status != AckDone {
		t.Fatalf("fresh seq after replay: ack=%+v err=%v", a, err)
	}

	after := srv.KPI().ExportCell(0).Cell
	if got := after.CrcPass + after.CrcFail - before.CrcPass - before.CrcFail; got != 1 {
		t.Fatalf("replay changed KPI by %d blocks, want 1 (the fresh frame only)", got)
	}
	st := srv.CellStats(0)
	if st.FramesDuplicate != 5 || st.FramesAccepted != 6 {
		t.Fatalf("cell stats: %+v, want 5 duplicates and 6 accepted", st)
	}
}

// TestDrainResumeCycle: a drained cell redirects; after Resume the
// redirect is sticky on the old connection (only a fresh connection's
// in-order replay may continue the cell's sequence space — otherwise a
// later in-flight frame admitted on the old connection would advance
// duplicate detection past the redirected one, and its replay would be
// swallowed uncounted), while a reconnect is admitted.
func TestDrainResumeCycle(t *testing.T) {
	const ant = 2
	srv, addr := startServer(t, controlServerConfig(ant))
	ctl := startControl(t, srv)
	users := genFrameUsers(t, ant, []int{2})
	frame, err := AppendFrame(nil, 0, 0, users)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}

	if err := ctl.Drain(0, time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	rc := dialRaw(t, addr)
	rc.send(frame)
	if a, err := rc.readAck(); err != nil || a.Status != AckRedirect {
		t.Fatalf("drained cell: ack=%+v err=%v", a, err)
	}
	if err := ctl.Resume(0); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	// Same connection: the redirect stays sticky even after the drain
	// lifted.
	rc.send(frame)
	if a, err := rc.readAck(); err != nil || a.Status != AckRedirect {
		t.Fatalf("resumed cell, old conn: ack=%+v err=%v, want redirect", a, err)
	}
	// Fresh connection: the replayed sequence is admitted.
	rc2 := dialRaw(t, addr)
	rc2.send(frame)
	if a, err := rc2.readAck(); err != nil || a.Status != AckDone {
		t.Fatalf("resumed cell, new conn: ack=%+v err=%v", a, err)
	}
	if st := srv.CellStats(0); st.FramesRedirected != 2 || st.FramesAccepted != 1 {
		t.Fatalf("cell stats: %+v", st)
	}
}
