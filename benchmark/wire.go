package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ltephy/internal/fronthaul"
	"ltephy/internal/sched"
	"ltephy/internal/uplink"
)

const (
	// minFrames is how many measured frames a connection collects even when
	// the phase's time is up: a phase of a few milliseconds on a loaded
	// machine (the smoke test under go test ./...) must still yield medians.
	minFrames = 4
	// wireCapacity is an admission budget no subframe can exhaust: the
	// benchmark measures serving, not shedding.
	wireCapacity = 1e9
	// frameRing bounds the frames one connection can have unanswered: the
	// server's four decode slots plus what the socket buffers hold.
	frameRing = 64
)

// wirePhase describes one measured phase against a fresh server.
type wirePhase struct {
	workers int
	conns   int // one connection per cell
	// window > 0: closed loop, that many frames in flight per connection.
	// window == 0: open loop at rate frames/s summed over the connections,
	// each frame due at start + i*period whether or not earlier ones came back.
	window int
	rate   float64
	warm   int64 // ns served before measuring
	dur    int64 // ns measured
	slices int
	tr     *tracer
}

// wireRun is one phase's outcome. Latencies are ack arrival minus send start
// (closed loop) or minus due time (open loop), for frames acked AckDone.
type wireRun struct {
	lat       []int64
	slice     []uint8
	sliceTput []float64
	lateness  []int64 // open loop: send start minus due time, frames ready on time
	frames    int     // frames whose ack fell in the measured window
	failed    int
	mallocs   uint64 // heap allocations inside the measured window, whole process
	stats     []fronthaul.CellStats
	corrupt   int64
	sched     schedCounts
	err       error
}

// frameTimes is what the sender leaves for the ack reader about one frame.
type frameTimes struct {
	ref, encA, encB, wrA, wrB int64
	users                     int
}

type wireConn struct {
	ph      *wirePhase
	pl      *pool
	cell    uint16
	conn    net.Conn
	t0, end int64 // measured window

	mu   sync.Mutex
	ring [frameRing]frameTimes

	sent, acked int64
	measured    atomic.Int64 // frames recorded in lat
	lat, when   []int64      // latency, and the instant that places it in a slice
	lateness    []int64
	failed      int
}

// outDir is where a run leaves files: benchmark/out from the repository root,
// out from inside the package directory (go test).
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// poolIndex maps a frame to its pool entry; cells start half a pool apart so
// the two connections never serve the same subframe at once.
func poolIndex(pl *pool, conns int, cell uint16, seq int64) int {
	return (int(seq) + int(cell)*len(pl.entries)/conns) % len(pl.entries)
}

// runWire starts a fronthaul server on a Unix socket, configured as lte-enb's
// defaults except the worker count and an admission budget that never sheds,
// drives it for one phase and shuts it down. A frame fails unless it is
// answered AckDone with every user accepted; a phase fails as a whole on
// Sent != Acked, a corrupt frame, a result that differs from the golden pass
// or a result count that differs from the users accepted.
func runWire(w *workload, pl *pool, ph wirePhase) wireRun {
	var run wireRun
	if ph.window == 0 && !(ph.rate > 0) {
		return wireRun{err: fmt.Errorf("%s: open loop at %v frames/s", w.name, ph.rate)}
	}
	// Connections, slots and arenas are cold for the first few frames however
	// short the phase.
	ph.warm = max(ph.warm, int64(50*time.Millisecond))
	var results, mismatched atomic.Int64
	srv, err := fronthaul.NewServer(fronthaul.Config{
		Cells:       ph.conns,
		Workers:     ph.workers,
		Receiver:    w.rc,
		Capacity:    wireCapacity,
		Burst:       2 * wireCapacity,
		KPISampling: 1,
		Seed:        defaultSeed,
		OnResult: func(r uplink.UserResult) {
			results.Add(1)
			e := &pl.entries[poolIndex(pl, ph.conns, r.Cell, r.Seq)]
			if r.UserID >= len(e.golden) || !sameResult(&r, &e.golden[r.UserID]) {
				mismatched.Add(1)
			}
		},
	})
	if err != nil {
		return wireRun{err: err}
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		srv.Close()
		return wireRun{err: err}
	}
	sock := filepath.Join(outDir(), fmt.Sprintf("wire-%d.sock", os.Getpid()))
	os.Remove(sock)
	ln, err := net.Listen("unix", sock)
	if err != nil {
		srv.Close()
		return wireRun{err: err}
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	start := now()
	t0 := start + ph.warm
	conns := make([]*wireConn, ph.conns)
	var wg sync.WaitGroup
	for c := range conns {
		wc := &wireConn{ph: &ph, pl: pl, cell: uint16(c), t0: t0, end: t0 + ph.dur}
		conns[c] = wc
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wc.run(sock, start); err != nil {
				wc.failed++
				fmt.Fprintf(os.Stderr, "benchmark: %s cell %d: %v\n", w.name, wc.cell, err)
			}
		}()
	}
	var ms runtime.MemStats
	sleepUntil(t0)
	runtime.ReadMemStats(&ms)
	run.mallocs = ms.Mallocs
	sleepUntil(t0 + ph.dur)
	runtime.ReadMemStats(&ms)
	run.mallocs = ms.Mallocs - run.mallocs
	wg.Wait()
	wall := now() - start
	served := poolStats(srv.Pools()[0])
	srv.Close()
	if err := <-serveErr; err != nil && !errors.Is(err, net.ErrClosed) {
		run.err = err
	}
	os.Remove(sock)

	run.stats = srv.Stats()
	run.corrupt = srv.CorruptFrames()
	var sent, acked, usersAccepted int64
	sliceLen := max(ph.dur/int64(ph.slices), 1)
	perSlice := make([]int, ph.slices)
	for _, wc := range conns {
		sent, acked = sent+wc.sent, acked+wc.acked
		run.failed += wc.failed
		run.lateness = append(run.lateness, wc.lateness...)
		for i, l := range wc.lat {
			s := min(int((wc.when[i]-t0)/sliceLen), ph.slices-1)
			run.lat = append(run.lat, l)
			run.slice = append(run.slice, uint8(s))
			perSlice[s]++
		}
	}
	for _, st := range run.stats {
		usersAccepted += st.UsersAccepted
	}
	run.frames = len(run.lat)
	for _, n := range perSlice {
		run.sliceTput = append(run.sliceTput, float64(n)/(float64(sliceLen)/1e9))
	}
	run.sched = schedDelta(sched.WorkerStats{}, served, ph.workers, wall, int(max(acked, 1)))
	if sent != acked || run.corrupt != 0 || mismatched.Load() != 0 || results.Load() != usersAccepted {
		fmt.Fprintf(os.Stderr, "benchmark: %s: sent %d acked %d corrupt %d mismatched %d results %d users accepted %d\n",
			w.name, sent, acked, run.corrupt, mismatched.Load(), results.Load(), usersAccepted)
		run.failed += int(max(sent-acked, run.corrupt, mismatched.Load(), 1))
	}
	return run
}

// over reports whether instant t lies past the measured window, which stays
// open until minFrames frames have been recorded.
func (wc *wireConn) over(t int64) bool { return t >= wc.end && wc.measured.Load() >= minFrames }

// run sends this cell's frames on one connection while a second goroutine
// reads the acks. The sender half-closes when it is done; the server answers
// what is in flight and closes, which ends the reader.
func (wc *wireConn) run(sock string, start int64) error {
	conn, err := net.Dial("unix", sock)
	if err != nil {
		return err
	}
	defer conn.Close()
	wc.conn = conn
	wc.lat = make([]int64, 0, 1<<16)
	wc.when = make([]int64, 0, 1<<16)
	wc.lateness = make([]int64, 0, 1<<16)

	// One token per frame in flight; the open loop never takes one.
	tokens := make(chan struct{}, max(wc.ph.window, 1))
	for i := 0; i < wc.ph.window; i++ {
		tokens <- struct{}{}
	}
	readerGone := make(chan struct{})
	ackErr := make(chan error, 1)
	go func() {
		ackErr <- wc.readAcks(tokens)
		close(readerGone)
	}()

	sendErr := wc.send(tokens, readerGone, start)
	if sendErr != nil {
		conn.Close()
	} else if err := conn.(*net.UnixConn).CloseWrite(); err != nil {
		sendErr = err
	}
	// A server that neither answers nor closes must not hang the benchmark.
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if err := <-ackErr; sendErr == nil {
		sendErr = err
	}
	return sendErr
}

func (wc *wireConn) send(tokens <-chan struct{}, readerGone <-chan struct{}, start int64) error {
	ph := wc.ph
	closed := ph.window > 0
	period := int64(0)
	if !closed {
		period = int64(float64(ph.conns) * 1e9 / ph.rate)
	}
	var buf []byte
	for seq := int64(0); ; seq++ {
		e := &wc.pl.entries[poolIndex(wc.pl, ph.conns, wc.cell, seq)]
		ft := frameTimes{users: len(e.frame)}
		// Encoded before the frame is due: the generator's own work must not
		// show in the latency it reports.
		ft.encA = now()
		var err error
		if buf, err = fronthaul.AppendFrame(buf[:0], wc.cell, seq, e.frame); err != nil {
			return err
		}
		ft.encB = now()
		if closed {
			select {
			case <-tokens:
			case <-readerGone:
				return errors.New("ack reader stopped early")
			}
			if wc.over(now()) {
				return nil
			}
			ft.wrA = now()
			ft.ref = ft.wrA
		} else {
			// A fixed schedule: the cells interleave, and a late frame does
			// not push back the ones after it.
			ft.ref = start + seq*period + int64(wc.cell)*period/int64(ph.conns)
			if wc.over(ft.ref) {
				return nil
			}
			sleepUntil(ft.ref)
			ft.wrA = now()
			// Lateness is the generator's own: only frames it had ready on
			// time count. A frame still waiting for the previous Write to
			// return is the server pushing back, and shows as latency.
			if ft.ref >= wc.t0 && ft.encB <= ft.ref {
				wc.lateness = append(wc.lateness, ft.wrA-ft.ref)
			}
		}
		wc.mu.Lock()
		wc.ring[seq%frameRing] = ft
		wc.mu.Unlock()
		if _, err := wc.conn.Write(buf); err != nil {
			return err
		}
		wrB := now()
		wc.mu.Lock()
		wc.ring[seq%frameRing].wrB = wrB
		wc.mu.Unlock()
		wc.sent++
	}
}

// readAcks consumes one ack per frame until the server closes the stream.
func (wc *wireConn) readAcks(tokens chan<- struct{}) error {
	closed := wc.ph.window > 0
	var buf [fronthaul.AckLen]byte
	for {
		if _, err := io.ReadFull(wc.conn, buf[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		at := now()
		wc.acked++
		if closed {
			tokens <- struct{}{}
		}
		a, err := fronthaul.ParseAck(&buf)
		if err != nil || a.Seq < 0 {
			wc.failed++
			continue
		}
		wc.mu.Lock()
		ft := wc.ring[a.Seq%frameRing]
		wc.mu.Unlock()
		if a.Cell != wc.cell || a.Status != fronthaul.AckDone || int(a.UsersAccepted) != ft.users {
			wc.failed++
			continue
		}
		// A closed loop counts completions inside the window; an open loop
		// counts every frame that was due inside it, however late its ack.
		when := ft.ref
		if closed {
			when = at
		}
		if when < wc.t0 || wc.over(when) {
			continue
		}
		wc.lat = append(wc.lat, at-ft.ref)
		wc.when = append(wc.when, when)
		wc.measured.Add(1)
		if tr := wc.ph.tr; tr != nil {
			tid := 3 + uint8(wc.cell)
			wrB := max(ft.wrB, ft.wrA) // the ack can beat the sender's own stamp
			root := tr.add(spFrame, tid, -1, int32(a.Seq), ft.ref, at)
			tr.add(spEncode, tid, root, int32(a.Seq), ft.encA, ft.encB)
			tr.add(spWrite, tid, root, int32(a.Seq), ft.wrA, wrB)
			tr.add(spAckWait, tid, root, int32(a.Seq), wrB, at)
		}
	}
}
