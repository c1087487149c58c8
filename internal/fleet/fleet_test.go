package fleet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ltephy/internal/fronthaul"
)

// testServerConfig is the worker template the fleet tests share: KPI
// recording on (the reconcile asserts need it), generous deadline, flat
// predictor with enough capacity that nominal load sheds nothing.
func testServerConfig() fronthaul.Config {
	return fronthaul.Config{
		Workers:        2,
		Pools:          1,
		Delta:          time.Millisecond,
		DeadlineBudget: time.Minute,
		Predictor:      fronthaul.FlatPredictor{PerPRB: 1e-3},
		Capacity:       1,
		KPISampling:    1,
		Seed:           7,
	}
}

// newTestFleet brings up an in-process fleet and registers cleanup.
func newTestFleet(t *testing.T, workers, cells int, cfg Config) *Coordinator {
	t.Helper()
	l := &InProcLauncher{Cfg: InProcConfig{Server: testServerConfig(), Cells: cells, Metrics: true}}
	cfg.Workers = workers
	cfg.Cells = cells
	cfg.Launcher = l
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 25 * time.Millisecond
	}
	if cfg.BackoffMin == 0 {
		cfg.BackoffMin = 10 * time.Millisecond
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	cfg.Logf = t.Logf
	co, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	t.Cleanup(func() { co.Close(); l.Close() })
	return co
}

// TestFleetHarnessExactlyOnce is the fleet acceptance test: 2 workers x
// 4 cells under the diurnal harness, with a live migration AND a forced
// worker crash mid-run. Zero subframes lost, and the fleet KPI rollup
// accounts for every offered user exactly once.
func TestFleetHarnessExactlyOnce(t *testing.T) {
	const (
		workers   = 2
		cells     = 4
		subframes = 50
	)
	co := newTestFleet(t, workers, cells, Config{})

	// Cell 0's generator fires the fault injections at fixed sequences:
	// a live migration of cell 2 (worker 0 -> 1) a third of the way in,
	// then a checkpoint round followed by a hard kill of worker 0.
	onSeq := func(seq int64) {
		switch seq {
		case 15:
			if err := co.Migrate(2, 1); err != nil {
				t.Errorf("Migrate(2, 1): %v", err)
			}
		case 35:
			if err := co.CheckpointRound(); err != nil {
				t.Errorf("CheckpointRound: %v", err)
			}
			w, err := co.Worker(0)
			if err != nil {
				t.Errorf("Worker(0): %v", err)
				return
			}
			w.Kill()
		}
	}

	stats, err := RunHarness(HarnessConfig{Coordinator: co, GenConfig: fronthaul.GenConfig{
		Cells:     cells,
		Subframes: subframes,
		Load:      1.5,
		Seed:      7,
		MaxPRB:    2,
		DTXProb:   0.1,
		OnSeq:     onSeq,
	}})
	if err != nil {
		t.Fatalf("RunHarness: %v\n%s", err, stats)
	}
	t.Logf("harness: %s", stats)

	if stats.Lost != 0 {
		t.Fatalf("lost %d subframes: %s", stats.Lost, stats)
	}
	if stats.BadAcks != 0 {
		t.Fatalf("bad acks: %s", stats)
	}
	if want := int64(cells * subframes); stats.Sent != want {
		t.Fatalf("sent %d subframes, want %d", stats.Sent, want)
	}
	if stats.Done+stats.ShedFrames()+stats.Duplicate != stats.Sent || stats.Acked != stats.Sent {
		t.Fatalf("terminal acks do not cover every subframe: %s", stats)
	}
	// The crash forces reconnects and replays; the drained source forces
	// redirects that surface as replays too.
	if stats.Reconnects == 0 || stats.Replayed == 0 {
		t.Fatalf("fault injection left no trace (reconnects=%d replayed=%d)",
			stats.Reconnects, stats.Replayed)
	}

	// Exactly-once: every offered user is in exactly one KPI bucket,
	// across a migration and a crash-restore.
	total := stats.Fleet.Total
	if got := total.CrcPass + total.CrcFail + total.Dtx + total.Skipped; got != stats.UsersSent {
		t.Fatalf("KPI sum %d != users sent %d (pass=%d fail=%d dtx=%d skipped=%d)",
			got, stats.UsersSent, total.CrcPass, total.CrcFail, total.Dtx, total.Skipped)
	}
	if total.Dtx != stats.UsersDTX {
		t.Fatalf("KPI dtx %d != generator dtx %d", total.Dtx, stats.UsersDTX)
	}

	// The migration stuck.
	if p := co.Placement(); p.Owner[2] != 1 {
		t.Fatalf("cell 2 owned by worker %d after migration, want 1", p.Owner[2])
	}
	if p := co.Placement(); p.Epoch == 0 {
		t.Fatalf("placement epoch never advanced")
	}

	// The summary lines carry the fields the CI smoke job greps.
	line := stats.String() + " " + stats.Rollup()
	for _, key := range []string{"sent=", "lost=", "kpi_total=", "predicted_shed=", "measured_shed=", "p999="} {
		if !strings.Contains(line, key) {
			t.Fatalf("summary line missing %q: %s", key, line)
		}
	}
}

// TestFleetHarnessDeterministicDelivery: two identical runs (no fault
// injection) deliver identical subframe and user accounting.
func TestFleetHarnessDeterministicDelivery(t *testing.T) {
	run := func() HarnessStats {
		co := newTestFleet(t, 2, 4, Config{})
		stats, err := RunHarness(HarnessConfig{Coordinator: co, GenConfig: fronthaul.GenConfig{
			Cells:     4,
			Subframes: 30,
			Load:      1,
			Seed:      11,
			MaxPRB:    2,
			DTXProb:   0.2,
		}})
		if err != nil {
			t.Fatalf("RunHarness: %v", err)
		}
		co.Close()
		return stats
	}
	a, b := run(), run()
	if a.Sent != b.Sent || a.UsersSent != b.UsersSent || a.UsersDTX != b.UsersDTX ||
		a.Done != b.Done || a.ShedOverload != b.ShedOverload {
		t.Fatalf("runs diverged:\n  %s\n  %s", a, b)
	}
	if a.Fleet.Total != b.Fleet.Total {
		t.Fatalf("fleet KPI diverged:\n  %+v\n  %+v", a.Fleet.Total, b.Fleet.Total)
	}
}

// TestCheckpointLoopDuringMigration: background checkpoint rounds race
// live migrations of the same cell (the lte-fleet deployment shape when
// both -checkpoint-every and -rebalance-every are set). The per-cell
// migration mutex must keep each drain/checkpoint/resume sequence
// atomic: no subframe lost, exactly-once KPI accounting, and the
// retained snapshot must hold real admission state — a checkpoint of
// the released cell on the old owner would overwrite it with scratch
// state and resume the cell where it no longer lives.
func TestCheckpointLoopDuringMigration(t *testing.T) {
	const (
		workers   = 2
		cells     = 4
		subframes = 60
	)
	co := newTestFleet(t, workers, cells, Config{CheckpointInterval: 5 * time.Millisecond})

	// Ping-pong cell 2 between the workers while the checkpoint loop runs.
	onSeq := func(seq int64) {
		if seq%10 != 5 {
			return
		}
		to := int((seq / 10) % 2)
		if err := co.Migrate(2, to); err != nil {
			t.Errorf("Migrate(2, %d) at seq %d: %v", to, seq, err)
		}
	}
	stats, err := RunHarness(HarnessConfig{Coordinator: co, GenConfig: fronthaul.GenConfig{
		Cells:     cells,
		Subframes: subframes,
		Load:      1.5,
		Seed:      13,
		MaxPRB:    2,
		DTXProb:   0.1,
		OnSeq:     onSeq,
	}})
	if err != nil {
		t.Fatalf("RunHarness: %v\n%s", err, stats)
	}
	t.Logf("harness: %s", stats)
	if stats.Lost != 0 {
		t.Fatalf("lost %d subframes: %s", stats.Lost, stats)
	}
	if stats.BadAcks != 0 {
		t.Fatalf("bad acks: %s", stats)
	}
	total := stats.Fleet.Total
	if got := total.CrcPass + total.CrcFail + total.Dtx + total.Skipped; got != stats.UsersSent {
		t.Fatalf("KPI sum %d != users sent %d (pass=%d fail=%d dtx=%d skipped=%d)",
			got, stats.UsersSent, total.CrcPass, total.CrcFail, total.Dtx, total.Skipped)
	}
	// The migrated cell's retained snapshot must carry live admission
	// state, not the zeroed state of a released cell.
	snap := co.Snapshot(2)
	if snap == nil {
		t.Fatalf("no retained snapshot for the migrated cell")
	}
	ck, err := fronthaul.DecodeCheckpoint(snap)
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	if !ck.Admission.Started {
		t.Fatalf("retained snapshot for cell 2 holds scratch admission state")
	}
}

// flakyLauncher delegates to an InProcLauncher but fails each slot's
// first relaunch, exercising restart's retry loop: a failed launch
// (e.g. a failed checkpoint Restore) must consume a backoff credit and
// retry, not abandon the slot.
type flakyLauncher struct {
	inner *InProcLauncher

	mu       sync.Mutex
	launches map[int]int
}

func (l *flakyLauncher) Launch(index int) (Worker, error) {
	l.mu.Lock()
	n := l.launches[index]
	l.launches[index]++
	l.mu.Unlock()
	if n == 1 {
		return nil, errors.New("injected relaunch failure")
	}
	return l.inner.Launch(index)
}

// TestRestartRetriesFailedRelaunch: worker 0 is killed, its first
// relaunch fails, and supervision still brings it back on the next
// backoff attempt.
func TestRestartRetriesFailedRelaunch(t *testing.T) {
	inner := &InProcLauncher{Cfg: InProcConfig{Server: testServerConfig(), Cells: 2, Metrics: true}}
	l := &flakyLauncher{inner: inner, launches: map[int]int{}}
	co, err := New(Config{
		Workers:        2,
		Cells:          2,
		Launcher:       l,
		HealthInterval: 25 * time.Millisecond,
		BackoffMin:     10 * time.Millisecond,
		DrainTimeout:   5 * time.Second,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	t.Cleanup(func() { co.Close(); inner.Close() })

	w0, err := co.Worker(0)
	if err != nil {
		t.Fatalf("Worker(0): %v", err)
	}
	w0.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if w, err := co.Worker(0); err == nil && w != w0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker 0 never came back after the failed relaunch")
		}
		time.Sleep(10 * time.Millisecond)
	}
	l.mu.Lock()
	launches := l.launches[0]
	l.mu.Unlock()
	if launches != 3 {
		t.Fatalf("worker 0 launched %d times, want 3 (initial + failed relaunch + retry)", launches)
	}
}

// TestCoordinatorRestartRestoresCells: kill a worker with no traffic in
// flight; supervision relaunches it and the placement still resolves.
func TestCoordinatorRestartRestoresCells(t *testing.T) {
	co := newTestFleet(t, 2, 4, Config{})
	w0, err := co.Worker(0)
	if err != nil {
		t.Fatalf("Worker(0): %v", err)
	}
	epoch0 := co.Placement().Epoch
	w0.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for {
		w, err := co.Worker(0)
		if err == nil && w != w0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker 0 never restarted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, _, _, err := co.Resolve(0); err != nil {
		// The swap may race the resolve by a beat; retry briefly.
		time.Sleep(100 * time.Millisecond)
		if _, _, _, err := co.Resolve(0); err != nil {
			t.Fatalf("Resolve after restart: %v", err)
		}
	}
	if co.Placement().Epoch == epoch0 {
		t.Fatalf("restart did not advance the placement epoch")
	}
}

// TestRebalanceOnceMoves: with every cell on worker 0 and real scraped
// load, RebalanceOnce migrates at least one cell to worker 1.
func TestRebalanceOnceMoves(t *testing.T) {
	co := newTestFleet(t, 2, 2, Config{})
	// Both cells start round-robin (0->0, 1->1); move cell 1 back to
	// worker 0 so the load is fully skewed.
	if err := co.Migrate(1, 0); err != nil {
		t.Fatalf("Migrate(1, 0): %v", err)
	}
	// Offer traffic so the scraped activity is nonzero.
	stats, err := RunHarness(HarnessConfig{Coordinator: co, GenConfig: fronthaul.GenConfig{
		Cells:     2,
		Subframes: 20,
		Load:      1,
		Seed:      3,
		MaxPRB:    2,
	}})
	if err != nil {
		t.Fatalf("RunHarness: %v", err)
	}
	if stats.Lost != 0 {
		t.Fatalf("lost subframes before rebalance: %s", stats)
	}
	moves, err := co.RebalanceOnce(1, 0.01, 0.5)
	if err != nil {
		t.Fatalf("RebalanceOnce: %v", err)
	}
	if len(moves) != 1 || moves[0].To != 1 {
		t.Fatalf("moves = %v, want one move to worker 1", moves)
	}
	if p := co.Placement(); p.Owner[moves[0].Cell] != 1 {
		t.Fatalf("placement not updated by rebalance: %v", p.Owner)
	}
}

// sinkWorker is a Worker whose data plane is whatever listener the test
// points it at.
type sinkWorker struct{ network, addr string }

func (w sinkWorker) Index() int                    { return 0 }
func (w sinkWorker) DataAddr() (string, string)    { return w.network, w.addr }
func (w sinkWorker) ControlAddr() (string, string) { return "", "" }
func (w sinkWorker) FetchURL() string              { return "" }
func (w sinkWorker) Done() <-chan struct{}         { return nil }
func (w sinkWorker) Kill()                         {}

// readFrame reads one whole wire frame and returns its bytes and sequence.
func readFrame(r io.Reader) ([]byte, int64, error) {
	var hdr [fronthaul.FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	h, err := fronthaul.ParseHeader(&hdr, fronthaul.MaxUsersPerFrame, fronthaul.DefaultMaxPayload)
	if err != nil {
		return nil, 0, err
	}
	frame := make([]byte, fronthaul.FrameHeaderLen+int(h.PayloadLen)+fronthaul.TrailerLen)
	copy(frame, hdr[:])
	_, err = io.ReadFull(r, frame[fronthaul.FrameHeaderLen:])
	return frame, h.Seq, err
}

func writeAck(w io.Writer, status uint8, seq int64) error {
	var b [fronthaul.AckLen]byte
	fronthaul.PutAck(&b, fronthaul.Ack{Status: status, Seq: seq})
	_, err := w.Write(b[:])
	return err
}

// TestWriteAfterReconnectSendsOnce pins the generator's write contract: a
// frame is entered into the replay ring before it is sent, so when the
// send has to reconnect, the reconnect's replay of the ring already
// carries it and the send must not write it a second time. The copy's
// immediate AckDuplicate would otherwise race the original's AckDone for
// which of the two the generator counts. With nothing stable, the ring
// still holds frames 0 and 1 after their acks when the first connection
// ends; frame 2 then goes out through the reconnect alone.
func TestWriteAfterReconnectSendsOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The sink, one connection after the other: ack frames 0 and 1 on the
	// first, then hang up; on the second record every frame until the
	// generator hangs up, answering the replays as a restored server would.
	type sunk struct {
		first, second [][]byte
		seqs          []int64
	}
	done := make(chan sunk, 1)
	go func() {
		var got sunk
		defer func() { done <- got }()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		for seq := int64(0); seq < 2; seq++ {
			frame, s, err := readFrame(conn)
			if err != nil || s != seq || writeAck(conn, fronthaul.AckDone, seq) != nil {
				break
			}
			got.first = append(got.first, frame)
		}
		conn.Close()
		if conn, err = ln.Accept(); err != nil {
			return
		}
		defer conn.Close()
		for {
			frame, seq, err := readFrame(conn)
			if err != nil {
				return
			}
			got.seqs = append(got.seqs, seq)
			got.second = append(got.second, frame)
			status := fronthaul.AckDuplicate
			if seq == 2 {
				status = fronthaul.AckDone
			}
			if writeAck(conn, status, seq) != nil {
				return
			}
		}
	}()
	co := &Coordinator{
		placement: Placement{Owner: []int{0}},
		workers:   []*workerState{{w: sinkWorker{"tcp", ln.Addr().String()}}},
	}
	stats, err := fronthaul.Generate(fronthaul.GenConfig{
		Resolve: func(cell int) (string, string, error) {
			network, addr, _, err := co.Resolve(cell)
			return network, addr, err
		},
		Stable:    co.StableSeq,
		Cells:     1,
		Subframes: 3,
		Interval:  100 * time.Millisecond,
		Seed:      1,
		MaxPRB:    2,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	got := <-done
	if len(got.first) != 2 {
		t.Fatalf("first connection carried %d frames, want 2", len(got.first))
	}
	if !slices.Equal(got.seqs, []int64{0, 1, 2}) {
		t.Fatalf("second connection carried sequences %v, want the ring once, in order: [0 1 2]", got.seqs)
	}
	for i := range got.first {
		if !bytes.Equal(got.second[i], got.first[i]) {
			t.Errorf("replay of frame %d differs from its first transmission", i)
		}
	}
	if stats.Reconnects != 1 || stats.Replayed != 3 {
		t.Errorf("reconnects = %d, replayed = %d, want 1 and 3", stats.Reconnects, stats.Replayed)
	}
	if stats.Sent != 3 || stats.Done != 3 || stats.Duplicate != 0 || stats.Lost != 0 {
		t.Errorf("first terminal ack per sequence must win: %s", stats)
	}
}
