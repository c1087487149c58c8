package fronthaul

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"ltephy/internal/obs"
	"ltephy/internal/params"
	"ltephy/internal/rng"
	"ltephy/internal/sched"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

const (
	// genWindow bounds each cell's unacknowledged frames in flight.
	genWindow = 32
	// genStall bounds how long a cell may go without sending a frame or
	// receiving a terminal ack, and how long it retries reaching its
	// server, before the run gives up.
	genStall = time.Minute
	// genCacheSets is the input-data realisation rotation
	// (sched.Dispatcher semantics).
	genCacheSets = 4
	// genAckQueue is the depth of the hand-off from a connection's ack
	// reader to the cell's sender: several windows, so a reader does not
	// wait on a sender that is synthesising a frame or writing a replay;
	// past it the socket buffers the acks.
	genAckQueue = 256
)

// GenConfig configures the wire generator: one sender per cell replaying a
// parameter model as wire frames, every frame retained until its terminal
// ack so that connection loss or a redirect costs a replay, never a frame.
type GenConfig struct {
	// Resolve locates a cell's server. It is queried at the first send
	// and again after connection loss or an AckRedirect. Addr gives the
	// resolver of a single server.
	Resolve func(cell int) (network, addr string, err error)
	// Stable, when non-nil, reports the sequence horizon a cell's server
	// would resume from after a crash (a fleet's last checkpoint): frames
	// newer than it stay in the replay ring even after their terminal ack,
	// because a restored server has lost their accounting. Nil retires a
	// frame at its terminal ack.
	Stable func(cell int) int64
	// Model builds a cell's parameter model from its seed (Seed+cell).
	// Nil means params.NewRandom, the paper's Fig. 6 model.
	Model func(seed uint64) (params.Model, error)
	// Cells is the number of cells to drive (cell indices 0..Cells-1).
	Cells int
	// Subframes is the sequence count sent per cell.
	Subframes int
	// Interval is the wall-clock gap between frames per cell: Delta for
	// real-time replay, Delta/2 for 2x real-time, 0 for as fast as the
	// window allows. (Admission runs in virtual sequence time, so the
	// rate pressures deadlines and transport, not shedding.)
	Interval time.Duration
	// Load multiplies the offered work per subframe: each frame
	// concatenates ~Load model draws (fractions alternate), so Load 4
	// offers four subframes' worth of users per period.
	Load float64
	// Seed drives the parameter models (per cell: Seed+cell), the DTX
	// draws and signal synthesis.
	Seed uint64
	// MaxPRB clamps per-user PRBs (0 = no clamp), scaling DSP to host
	// speed exactly like lte-bench does.
	MaxPRB int
	// DTXProb flags each offered user DTX (scheduled-but-absent) with this
	// probability, from a per-cell rng stream. The flag is baked into the
	// retained frame bytes, so replays carry identical DTX sets.
	DTXProb float64
	// TX configures signal synthesis; TX.Receiver must match the server's
	// receiver (antenna count).
	TX tx.Config
	// OnSeq, when non-nil, is called by cell 0's sender after sending each
	// sequence — a hook for forcing a migration or a crash at a
	// deterministic point in the run.
	OnSeq func(seq int64)
}

// Addr is the Resolve of a single server: every cell at network/addr.
func Addr(network, addr string) func(cell int) (string, string, error) {
	return func(int) (string, string, error) { return network, addr, nil }
}

// GenStats is the generator's view of a run. Every sent frame is settled
// by exactly one terminal ack, so Acked == Sent, Lost == 0 and BadAcks == 0
// together certify delivery without corruption end to end.
type GenStats struct {
	// Sent counts first transmissions; Replayed counts retransmissions
	// after a reconnect; Reconnects counts re-resolutions after a lost
	// connection or a redirect.
	Sent, Replayed, Reconnects int64
	// Acked counts terminal acks, the first per sequence; the dispositions
	// below partition it. A duplicate ack means the first one was lost with
	// its connection but the subframe WAS processed — never a loss.
	Acked                                                     int64
	Done, ShedLate, ShedOverload, ShedBackpressure, Duplicate int64
	// Redirected counts AckRedirect answers (a draining or migrated cell;
	// not terminal: the frame is replayed to the new owner).
	Redirected int64
	// UsersSent counts offered users in first transmissions, UsersDTX the
	// subset flagged DTX, UsersAccepted the users admitted per AckDone.
	UsersSent, UsersAccepted, UsersDTX int64
	// BadAcks counts acks that failed to parse or named another cell or
	// an unsent sequence.
	BadAcks int64
	// Lost counts subframes with no terminal ack when the run ended.
	Lost int64
	// P50/P90/P99/P999/Max are percentiles of the send-to-done-ack latency
	// of completed subframes, each ack stamped on arrival (P999 = p99.9).
	P50, P90, P99, P999, Max time.Duration
}

// ShedFrames sums the shed dispositions.
func (g GenStats) ShedFrames() int64 { return g.ShedLate + g.ShedOverload + g.ShedBackpressure }

// String renders the stats in the machine-greppable key=value form the
// serve-smoke and fleet-smoke jobs assert on.
func (g GenStats) String() string {
	return fmt.Sprintf(
		"sent=%d replayed=%d reconnects=%d acked=%d done=%d shed_late=%d shed_overload=%d "+
			"shed_backpressure=%d duplicate=%d redirected=%d lost=%d "+
			"users_sent=%d users_accepted=%d users_dtx=%d corrupt=%d "+
			"p50=%v p90=%v p99=%v p999=%v max=%v",
		g.Sent, g.Replayed, g.Reconnects, g.Acked, g.Done, g.ShedLate, g.ShedOverload,
		g.ShedBackpressure, g.Duplicate, g.Redirected, g.Lost,
		g.UsersSent, g.UsersAccepted, g.UsersDTX, g.BadAcks,
		g.P50, g.P90, g.P99, g.P999, g.Max)
}

// add folds one cell's counters into g (percentiles excluded).
func (g *GenStats) add(o *GenStats) {
	g.Sent += o.Sent
	g.Replayed += o.Replayed
	g.Reconnects += o.Reconnects
	g.Acked += o.Acked
	g.Done += o.Done
	g.ShedLate += o.ShedLate
	g.ShedOverload += o.ShedOverload
	g.ShedBackpressure += o.ShedBackpressure
	g.Duplicate += o.Duplicate
	g.Redirected += o.Redirected
	g.UsersSent += o.UsersSent
	g.UsersAccepted += o.UsersAccepted
	g.UsersDTX += o.UsersDTX
	g.BadAcks += o.BadAcks
	g.Lost += o.Lost
}

// Generate drives every cell and returns the aggregated stats. The first
// per-cell error is returned with the partial stats intact.
//
// Spawns one sender goroutine per cell, bracketed by wg.Add before the
// spawn and a deferred Done; wg.Wait joins them all before aggregation.
//
//ltephy:spawn-point
func Generate(cfg GenConfig) (GenStats, error) {
	if cfg.Resolve == nil {
		return GenStats{}, errors.New("fronthaul: generator needs a Resolve")
	}
	cfg.Cells = max(cfg.Cells, 1)
	cfg.Subframes = max(cfg.Subframes, 1)
	if cfg.Load <= 0 {
		cfg.Load = 1
	}
	if cfg.Model == nil {
		cfg.Model = func(seed uint64) (params.Model, error) { return params.NewRandom(seed), nil }
	}
	if cfg.TX.Receiver.Antennas == 0 {
		cfg.TX = tx.DefaultConfig()
	}
	// One shared dispatcher: the input-data cache is keyed by parameters
	// and set index, so cells reuse realisations instead of regenerating.
	disp := sched.NewDispatcher(sched.DispatcherConfig{
		Delta:     time.Millisecond,
		TX:        cfg.TX,
		CacheSets: genCacheSets,
		Seed:      cfg.Seed,
	})

	gens := make([]*sender, cfg.Cells)
	var wg sync.WaitGroup
	for c := range gens {
		g := newSender(&cfg, uint16(c), disp)
		gens[c] = g
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.err = g.run()
		}()
	}
	wg.Wait()

	var total GenStats
	var lats []int64
	var firstErr error
	for _, g := range gens {
		total.add(&g.stats)
		lats = append(lats, g.lats...)
		if g.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cell %d: %w", g.cell, g.err)
		}
	}
	total.P50, total.P90, total.P99, total.P999, total.Max = percentiles(lats)
	return total, firstErr
}

// ackMsg is one read from a connection, handed from its ack reader to the
// cell's sender: an ack stamped on arrival, or the end of the connection.
type ackMsg struct {
	ack  Ack
	ns   int64 // obs.Nanotime at arrival
	conn int   // the connection's generation
	err  error // non-nil: the read side ended
	bad  bool  // the read side ended on an unparseable ack
}

// retained is one frame in a cell's replay ring.
type retained struct {
	buf    []byte
	sentNs int64
	acked  bool
}

// sender is one cell's generator. The sender goroutine (run) owns every
// field; each connection's ack reader only reads the socket and hands what
// it reads over acks, so the ring and the counters need no lock.
type sender struct {
	cfg  *GenConfig
	cell uint16
	disp *sched.Dispatcher

	conn    net.Conn
	connGen int // connections made so far; messages from older ones are stale
	acks    chan ackMsg
	done    chan struct{} // closed at exit: releases readers blocked on acks
	readers sync.WaitGroup

	// ring retains every frame not yet acked, and — with cfg.Stable —
	// every acked frame newer than the stable horizon.
	ring     map[int64]*retained
	free     [][]byte // buffers of retired frames, for reuse
	unacked  int
	horizon  int64 // stable horizon the ring was last trimmed to
	progress time.Time
	stall    *time.Timer

	stats GenStats
	lats  []int64
	err   error
}

func newSender(cfg *GenConfig, cell uint16, disp *sched.Dispatcher) *sender {
	return &sender{
		cfg:     cfg,
		cell:    cell,
		disp:    disp,
		acks:    make(chan ackMsg, genAckQueue),
		done:    make(chan struct{}),
		ring:    map[int64]*retained{},
		horizon: -1,
	}
}

// run builds and sends this cell's frames, handling acks while it paces,
// then waits out the terminal acks of everything still in flight. Every
// ack reader it started is joined before it returns.
func (g *sender) run() error {
	g.progress = time.Now()
	g.stall = time.NewTimer(genStall)
	defer func() {
		g.stall.Stop()
		g.drop()
		close(g.done)
		g.readers.Wait()
		g.stats.Lost = int64(g.unacked)
	}()
	model, err := g.cfg.Model(g.cfg.Seed + uint64(g.cell))
	if err != nil {
		return err
	}
	var dtx *rng.RNG
	if g.cfg.DTXProb > 0 {
		dtx = rng.New(g.cfg.Seed + uint64(g.cell)*7919)
	}
	var tick <-chan time.Time
	if g.cfg.Interval > 0 {
		t := time.NewTicker(g.cfg.Interval)
		defer t.Stop()
		tick = t.C
	}
	var ps []uplink.UserParams
	var users []FrameUser
	loadAcc := 0.0
	for seq := int64(0); seq < int64(g.cfg.Subframes); seq++ {
		// Concatenate ~Load parameter draws into one offered subframe.
		draws := int(g.cfg.Load)
		loadAcc += g.cfg.Load - float64(draws)
		if loadAcc >= 1 {
			draws++
			loadAcc--
		}
		ps = ps[:0]
		for d := 0; d < max(draws, 1); d++ {
			for _, p := range model.Next() {
				if g.cfg.MaxPRB > 0 && p.PRB > g.cfg.MaxPRB {
					p.PRB = g.cfg.MaxPRB
				}
				if len(ps) < MaxUsersPerFrame {
					ps = append(ps, p)
				}
			}
		}
		for i := range ps {
			ps[i].ID = i
		}
		sf, err := g.disp.Subframe(seq, ps)
		if err != nil {
			return err
		}
		users = users[:0]
		for slot, u := range sf.Users {
			// Earlier slot = higher priority: overload degradation is
			// deterministic and observable.
			fu := FrameUser{Data: u, Priority: uint8(max(255-slot, 0))}
			if dtx != nil && dtx.Float64() < g.cfg.DTXProb {
				fu.DTX = true
				g.stats.UsersDTX++
			}
			users = append(users, fu)
		}
		var buf []byte
		if n := len(g.free); n > 0 {
			buf, g.free = g.free[n-1], g.free[:n-1]
		}
		if buf, err = AppendFrame(buf, g.cell, seq, users); err != nil {
			return err
		}
		g.ring[seq] = &retained{buf: buf}
		g.unacked++
		g.stats.Sent++
		g.stats.UsersSent += int64(len(users))
		if err := g.send(seq); err != nil {
			return err
		}
		if g.cfg.OnSeq != nil && g.cell == 0 {
			g.cfg.OnSeq(seq)
		}
		g.trim()
		if err := g.await(tick, genWindow); err != nil {
			return err
		}
	}
	return g.await(nil, 1)
}

// send transmits a frame already entered in the ring, connecting as
// needed. Connecting replays the whole ring, this frame included, so the
// frame goes out once either way: a second copy's immediate AckDuplicate
// would race the original's AckDone for which of the two is counted.
func (g *sender) send(seq int64) error {
	f := g.ring[seq]
	f.sentNs = obs.Nanotime()
	g.progress = time.Now()
	for {
		if g.conn == nil {
			if err := g.connect(); err != nil {
				return err
			}
			if g.conn != nil {
				return nil
			}
			continue // the replay lost the connection again
		}
		if _, err := g.conn.Write(f.buf); err != nil {
			g.drop()
			continue
		}
		return nil
	}
}

// await handles acks until fewer than limit frames are unacked and, when
// tick is non-nil, the tick has fired. A lost connection is re-made (with
// a replay) while frames are outstanding.
func (g *sender) await(tick <-chan time.Time, limit int) error {
	for tick != nil || g.unacked >= limit {
		if g.conn == nil && g.unacked > 0 {
			if err := g.connect(); err != nil {
				return err
			}
			continue
		}
		select {
		case <-tick:
			tick = nil
		case m := <-g.acks:
			g.handle(m)
		case <-g.stall.C:
			idle := time.Since(g.progress)
			if idle >= genStall {
				return fmt.Errorf("fronthaul: cell %d stalled %v with %d subframes unacked",
					g.cell, idle.Round(time.Second), g.unacked)
			}
			g.stall.Reset(genStall - idle)
		}
	}
	return nil
}

// handle applies one message from an ack reader. The first terminal ack
// per sequence wins (later echoes of replays are ignored); a redirect, a
// corrupt ack or the end of the current connection drops it, so the next
// send or wait re-resolves and replays.
func (g *sender) handle(m ackMsg) {
	current := m.conn == g.connGen
	if m.err != nil {
		if m.bad {
			g.stats.BadAcks++
		}
		if current {
			g.drop()
		}
		return
	}
	a := m.ack
	if a.Cell != g.cell || a.Seq < 0 || a.Seq >= g.stats.Sent {
		g.stats.BadAcks++
		return
	}
	if a.Status == AckRedirect {
		g.stats.Redirected++
		if current {
			g.drop()
		}
		return
	}
	f := g.ring[a.Seq]
	if f == nil || f.acked {
		return
	}
	switch a.Status {
	case AckDone:
		g.stats.Done++
		g.stats.UsersAccepted += int64(a.UsersAccepted)
		g.lats = append(g.lats, m.ns-f.sentNs)
	case AckShedLate:
		g.stats.ShedLate++
	case AckShedOverload:
		g.stats.ShedOverload++
	case AckShedBackpressure:
		g.stats.ShedBackpressure++
	case AckDuplicate:
		g.stats.Duplicate++
	}
	f.acked = true
	g.unacked--
	g.stats.Acked++
	g.progress = time.Now()
	if g.cfg.Stable == nil || a.Seq <= g.horizon {
		g.retire(a.Seq)
	}
}

// trim retires acked frames the stable horizon covers: a crash-restore
// resumes at the checkpointed sequence, so nothing at or below it will
// ever need replaying again.
func (g *sender) trim() {
	if g.cfg.Stable == nil {
		return
	}
	stable := g.cfg.Stable(int(g.cell))
	if stable <= g.horizon {
		return
	}
	g.horizon = stable
	for seq, f := range g.ring {
		if seq <= stable && f.acked {
			g.retire(seq)
		}
	}
}

func (g *sender) retire(seq int64) {
	g.free = append(g.free, g.ring[seq].buf[:0])
	delete(g.ring, seq)
}

// drop closes the connection; its reader sees the close and exits.
func (g *sender) drop() {
	if g.conn != nil {
		g.conn.Close()
		g.conn = nil
	}
}

// connect resolves the cell's server, dials it — retrying while the owner
// is mid-restart or mid-migration — starts the connection's ack reader and
// writes every retained frame oldest-first. On a restored server the
// in-order duplicate detection answers AckDuplicate for everything at or
// below its checkpointed sequence and re-admits the rest exactly once. A
// failed replay leaves the connection dropped for the caller to retry.
//
// The reader is bracketed by g.readers: Add before the spawn, Done
// deferred in the closure, joined by run's g.readers.Wait.
//
//ltephy:spawn-point
func (g *sender) connect() error {
	replay := g.connGen > 0
	if replay {
		g.stats.Reconnects++
	}
	deadline := time.Now().Add(genStall)
	var conn net.Conn
	for {
		network, addr, err := g.cfg.Resolve(int(g.cell))
		if err == nil {
			if conn, err = net.DialTimeout(network, addr, time.Second); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fronthaul: cell %d could not reach its server: %w", g.cell, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	g.conn = conn
	g.connGen++
	gen := g.connGen
	g.readers.Add(1)
	go func() {
		defer g.readers.Done()
		readAcks(conn, gen, g.acks, g.done)
	}()

	seqs := make([]int64, 0, len(g.ring))
	for seq := range g.ring {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		if _, err := conn.Write(g.ring[seq].buf); err != nil {
			g.drop()
			return nil
		}
		if replay {
			g.stats.Replayed++
		}
	}
	return nil
}

// readAcks reads acks from one connection until it ends, stamping each on
// arrival and handing it to the sender; the last message carries the
// error that ended the connection. It returns early once done is closed.
func readAcks(conn net.Conn, gen int, out chan<- ackMsg, done <-chan struct{}) {
	var buf [AckLen]byte
	for {
		m := ackMsg{conn: gen}
		if _, err := io.ReadFull(conn, buf[:]); err != nil {
			m.err = err
		} else {
			m.ns = obs.Nanotime()
			if m.ack, m.err = ParseAck(&buf); m.err != nil {
				m.bad = true
			}
		}
		select {
		case out <- m:
		case <-done:
			return
		}
		if m.err != nil {
			return
		}
	}
}

// percentiles returns the p50/p90/p99/p99.9/max of the given latencies.
func percentiles(lats []int64) (p50, p90, p99, p999, max time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0, 0, 0
	}
	slices.Sort(lats)
	at := func(q float64) time.Duration {
		return time.Duration(lats[int(q*float64(len(lats)-1))])
	}
	return at(0.50), at(0.90), at(0.99), at(0.999), time.Duration(lats[len(lats)-1])
}
