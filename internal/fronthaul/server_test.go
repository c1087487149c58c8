package fronthaul

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ltephy/internal/phy/modulation"
	"ltephy/internal/rng"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

// startServer brings up a server on a loopback TCP listener and returns
// its address. Close is registered as a cleanup.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

// TestLoopbackNominalLoad is the acceptance soak: four cells at 1x offered
// load must shed nothing and miss no deadlines, and every offered user
// must come back accepted.
func TestLoopbackNominalLoad(t *testing.T) {
	const cells, subframes = 4, 40
	srv, addr := startServer(t, Config{
		Cells:          cells,
		Pools:          2,
		Workers:        2,
		Delta:          time.Millisecond,
		DeadlineBudget: time.Minute, // generous: the assert is on shedding, not host speed
		Predictor:      FlatPredictor{PerPRB: 1e-3},
		Capacity:       1,
		Seed:           7,
	})
	stats, err := Generate(GenConfig{
		Resolve:   Addr("tcp", addr),
		Cells:     cells,
		Subframes: subframes,
		Load:      1,
		Seed:      7,
		MaxPRB:    2,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	want := int64(cells * subframes)
	if stats.Sent != want || stats.Acked != want || stats.Done != want {
		t.Fatalf("sent/acked/done = %d/%d/%d, want %d each", stats.Sent, stats.Acked, stats.Done, want)
	}
	if stats.ShedFrames() != 0 || stats.BadAcks != 0 {
		t.Fatalf("nominal load shed frames: %s", stats)
	}
	if stats.UsersAccepted != stats.UsersSent || stats.UsersSent == 0 {
		t.Fatalf("users accepted %d of %d sent", stats.UsersAccepted, stats.UsersSent)
	}
	for i := 0; i < cells; i++ {
		st := srv.CellStats(i)
		if st.FramesShed() != 0 || st.DeadlineMissed != 0 {
			t.Errorf("cell %d: shed=%d missed=%d, want 0/0", i, st.FramesShed(), st.DeadlineMissed)
		}
		if st.FramesAccepted != subframes || st.DeadlineMet != subframes {
			t.Errorf("cell %d: accepted=%d met=%d, want %d", i, st.FramesAccepted, st.DeadlineMet, subframes)
		}
	}
	if srv.CorruptFrames() != 0 {
		t.Fatalf("corrupt frames: %d", srv.CorruptFrames())
	}
}

// overloadRun drives one cell at 4x offered load and returns the
// generator and server views.
func overloadRun(t *testing.T) (GenStats, CellStats) {
	t.Helper()
	srv, addr := startServer(t, Config{
		Cells:          1,
		Workers:        2,
		Delta:          time.Millisecond,
		DeadlineBudget: time.Minute,
		Predictor:      FlatPredictor{PerPRB: 0.05},
		Capacity:       0.25,
		Burst:          0.5,
		Seed:           11,
	})
	stats, err := Generate(GenConfig{
		Resolve:   Addr("tcp", addr),
		Cells:     1,
		Subframes: 80,
		Load:      4,
		Seed:      11,
		MaxPRB:    2,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return stats, srv.CellStats(0)
}

// TestLoopbackOverload is the 4x acceptance soak: the server stays up,
// degrades by rejecting users rather than collapsing, and the reported
// shed fraction matches the estimator's predicted overload within 10%.
func TestLoopbackOverload(t *testing.T) {
	stats, st := overloadRun(t)
	if stats.Acked != stats.Sent || stats.BadAcks != 0 {
		t.Fatalf("accounting broken under overload: %s", stats)
	}
	if stats.UsersAccepted >= stats.UsersSent {
		t.Fatalf("overload did not reject any users: %s", stats)
	}
	if st.UsersAccepted == 0 {
		t.Fatalf("overload rejected everything: %+v", st)
	}

	// Reported shed fraction (activity actually rejected vs offered)
	// against the predicted overload for the granted budget: the initial
	// burst plus one capacity refill per elapsed subframe period.
	measured := 1 - st.AdmittedEst/st.OfferedEst
	granted := 0.5 + 0.25*float64(79)
	predicted := 1 - granted/st.OfferedEst
	if predicted <= 0 {
		t.Fatalf("test not in overload: offered estimate %g <= granted %g", st.OfferedEst, granted)
	}
	if diff := measured - predicted; diff < -0.1*predicted || diff > 0.1*predicted {
		t.Fatalf("shed fraction %0.3f vs predicted %0.3f: off by more than 10%%", measured, predicted)
	}
}

// TestLoopbackOverloadDeterministic replays the same overload twice: the
// virtual-time admission controller must shed exactly the same frames and
// users both times.
func TestLoopbackOverloadDeterministic(t *testing.T) {
	s1, c1 := overloadRun(t)
	s2, c2 := overloadRun(t)
	if s1.Done != s2.Done || s1.ShedOverload != s2.ShedOverload ||
		s1.UsersSent != s2.UsersSent || s1.UsersAccepted != s2.UsersAccepted {
		t.Fatalf("generator stats diverged:\n  %s\n  %s", s1, s2)
	}
	c1.DeadlineMet, c2.DeadlineMet = 0, 0 // wall-clock outcomes may differ
	c1.DeadlineMissed, c2.DeadlineMissed = 0, 0
	if c1 != c2 {
		t.Fatalf("cell stats diverged:\n  %+v\n  %+v", c1, c2)
	}
}

// rawConn sends hand-built frames and collects acks.
type rawConn struct {
	t    *testing.T
	conn net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn}
}

func (rc *rawConn) send(b []byte) {
	rc.t.Helper()
	if _, err := rc.conn.Write(b); err != nil {
		rc.t.Fatalf("write: %v", err)
	}
}

func (rc *rawConn) readAck() (Ack, error) {
	var buf [AckLen]byte
	if _, err := io.ReadFull(rc.conn, buf[:]); err != nil {
		return Ack{}, err
	}
	a, err := ParseAck(&buf)
	if err != nil {
		rc.t.Fatalf("ParseAck: %v", err)
	}
	return a, nil
}

// TestServerShedsByPriority sends subframes of six users whose priority
// equals their ID against a budget that fits three: only IDs 3, 4 and 5
// may ever reach the receiver, every frame.
func TestServerShedsByPriority(t *testing.T) {
	const ant = 2
	var mu sync.Mutex
	var gotIDs []int
	srv, addr := startServer(t, Config{
		Cells:          1,
		Workers:        2,
		Receiver:       func() uplink.ReceiverConfig { c := uplink.DefaultConfig(); c.Antennas = ant; return c }(),
		DeadlineBudget: time.Minute,
		Predictor:      FlatPredictor{PerPRB: 0.1},
		Capacity:       0.6,
		Burst:          0.6,
		OnResult: func(r uplink.UserResult) {
			mu.Lock()
			gotIDs = append(gotIDs, r.UserID)
			mu.Unlock()
		},
	})

	txCfg := tx.DefaultConfig()
	txCfg.Receiver.Antennas = ant
	r := rng.New(5)
	users := make([]FrameUser, 6)
	for i := range users {
		u, err := tx.Generate(txCfg, uplink.UserParams{
			ID: i, PRB: 2, Layers: 1, Mod: modulation.QPSK,
		}, r)
		if err != nil {
			t.Fatalf("tx.Generate: %v", err)
		}
		users[i] = FrameUser{Data: u, Priority: uint8(i)}
	}

	rc := dialRaw(t, addr)
	const frames = 10
	for seq := int64(0); seq < frames; seq++ {
		frame, err := AppendFrame(nil, 0, seq, users)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
		rc.send(frame)
	}
	for i := 0; i < frames; i++ {
		a, err := rc.readAck()
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if a.Status != AckDone || a.UsersAccepted != 3 {
			t.Fatalf("ack %d: %+v, want done with 3 users", i, a)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(gotIDs) != 3*frames {
		t.Fatalf("got %d results, want %d", len(gotIDs), 3*frames)
	}
	for _, id := range gotIDs {
		if id < 3 {
			t.Fatalf("low-priority user %d was admitted (results: %v)", id, gotIDs)
		}
	}
	st := srv.CellStats(0)
	if st.UsersAccepted != 3*frames || st.UsersRejected != 3*frames {
		t.Fatalf("cell stats: %+v, want %d accepted and rejected", st, 3*frames)
	}
}

// TestServerAcksDuplicateSubframe: a sequence number at or below the
// last admitted one is a replay — acknowledged AckDuplicate without
// processing or KPI accounting.
func TestServerAcksDuplicateSubframe(t *testing.T) {
	const ant = 2
	srv, addr := startServer(t, Config{
		Cells:          1,
		Workers:        1,
		Receiver:       func() uplink.ReceiverConfig { c := uplink.DefaultConfig(); c.Antennas = ant; return c }(),
		DeadlineBudget: time.Minute,
		Predictor:      FlatPredictor{PerPRB: 1e-3},
	})
	users := genFrameUsers(t, ant, []int{2})
	rc := dialRaw(t, addr)
	for _, seq := range []int64{5, 3} {
		frame, err := AppendFrame(nil, 0, seq, users)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
		rc.send(frame)
	}
	// Acks may interleave (completion runs on a worker); collect both.
	bySeq := map[int64]Ack{}
	for i := 0; i < 2; i++ {
		a, err := rc.readAck()
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		bySeq[a.Seq] = a
	}
	if a := bySeq[5]; a.Status != AckDone {
		t.Fatalf("seq 5: %+v, want done", a)
	}
	if a := bySeq[3]; a.Status != AckDuplicate {
		t.Fatalf("seq 3: %+v, want duplicate", a)
	}
	if st := srv.CellStats(0); st.FramesDuplicate != 1 || st.FramesShedLate != 0 || st.FramesAccepted != 1 {
		t.Fatalf("cell stats: %+v", st)
	}
}

// TestServerClosesCorruptConnection: framing violations close the
// connection and count, but the server keeps serving new connections.
func TestServerCorruptFrameClosesConn(t *testing.T) {
	const ant = 2
	srv, addr := startServer(t, Config{
		Cells:          1,
		Workers:        1,
		Receiver:       func() uplink.ReceiverConfig { c := uplink.DefaultConfig(); c.Antennas = ant; return c }(),
		DeadlineBudget: time.Minute,
		Predictor:      FlatPredictor{PerPRB: 1e-3},
	})
	users := genFrameUsers(t, ant, []int{2})
	good, err := AppendFrame(nil, 0, 0, users)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}

	cases := [][]byte{
		corrupt(good, 0, 0xFF),              // bad magic
		corrupt(good, FrameHeaderLen, 0x01), // payload CRC mismatch
		func() []byte { // unknown cell
			c := append([]byte(nil), good...)
			c[6] = 9
			resealSeq(c, 0) // reseal recomputes the CRC over the mutated cell
			return c
		}(),
	}
	for i, bad := range cases {
		rc := dialRaw(t, addr)
		rc.send(bad)
		if _, err := rc.readAck(); err == nil {
			t.Fatalf("case %d: got an ack for a corrupt frame", i)
		}
	}
	if got := srv.CorruptFrames(); got != int64(len(cases)) {
		t.Fatalf("corrupt frames = %d, want %d", got, len(cases))
	}

	// The server still serves a fresh, well-behaved connection.
	rc := dialRaw(t, addr)
	rc.send(good)
	a, err := rc.readAck()
	if err != nil || a.Status != AckDone {
		t.Fatalf("post-corruption frame: ack=%+v err=%v", a, err)
	}
}

// TestServerMetrics smoke-tests the Prometheus and trace exports.
func TestServerMetrics(t *testing.T) {
	stats, _ := overloadRunWithServer(t, func(srv *Server) {
		var sb strings.Builder
		if err := srv.WritePrometheus(&sb); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		out := sb.String()
		for _, want := range []string{
			"ltephy_cell_frames_total{cell=\"0\",disposition=\"accepted\"}",
			"ltephy_cell_users_total{cell=\"0\",disposition=\"rejected\"}",
			"ltephy_cell_activity_estimate_total{cell=\"0\",kind=\"offered\"}",
			"ltephy_corrupt_frames_total 0",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("metrics missing %q", want)
			}
		}
		var tb strings.Builder
		if err := srv.WriteAdmissionTrace(&tb); err != nil {
			t.Fatalf("WriteAdmissionTrace: %v", err)
		}
		if !strings.Contains(tb.String(), "traceEvents") {
			t.Errorf("admission trace missing traceEvents envelope")
		}
		if len(srv.AdmissionEvents()) == 0 {
			t.Errorf("no admission events recorded")
		}
	})
	if stats.Done == 0 {
		t.Fatalf("no frames completed: %s", stats)
	}
}

// overloadRunWithServer is overloadRun with a hook that runs against the
// live server before shutdown.
func overloadRunWithServer(t *testing.T, inspect func(*Server)) (GenStats, CellStats) {
	t.Helper()
	srv, addr := startServer(t, Config{
		Cells:          1,
		Workers:        2,
		Delta:          time.Millisecond,
		DeadlineBudget: time.Minute,
		Predictor:      FlatPredictor{PerPRB: 0.05},
		Capacity:       0.25,
		Burst:          0.5,
		Seed:           11,
	})
	stats, err := Generate(GenConfig{
		Resolve: Addr("tcp", addr), Cells: 1, Subframes: 40, Load: 4, Seed: 11, MaxPRB: 2,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	inspect(srv)
	return stats, srv.CellStats(0)
}
