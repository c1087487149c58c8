package fronthaul

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ltephy/internal/cost"
	"ltephy/internal/obs"
	"ltephy/internal/obs/kpi"
	"ltephy/internal/sched"
	"ltephy/internal/uplink"
)

// Config configures a fronthaul server.
type Config struct {
	// Cells is the number of cells served (frames address cells 0..Cells-1).
	Cells int
	// Pools is the number of scheduler pools the cells are sharded across
	// (cell c runs on pool c mod Pools). Defaults to 1.
	Pools int
	// Workers is the worker count per pool. Defaults to GOMAXPROCS/Pools.
	Workers int
	// Receiver is the uplink receiver configuration; frames must declare
	// its antenna count.
	Receiver uplink.ReceiverConfig
	// Delta is the subframe period the admission budget refills over and
	// the default deadline budget. Defaults to 5ms.
	Delta time.Duration
	// DeadlineBudget is the dispatch-to-completion budget charged against
	// each admitted subframe. Defaults to Delta.
	DeadlineBudget time.Duration
	// Capacity is the admission activity budget granted per subframe
	// period (1.0 = the whole pool for one period). Defaults to 1.0.
	Capacity float64
	// Burst caps the banked admission budget. Defaults to 2*Capacity.
	Burst float64
	// Predictor estimates per-user workload for admission. Defaults to a
	// CostPredictor over cost.Default().
	Predictor Predictor
	// SlotsPerConn bounds the frames one connection may have in flight.
	// Defaults to 4.
	SlotsPerConn int
	// MaxUsers bounds the user records per frame. Defaults to
	// MaxUsersPerFrame.
	MaxUsers int
	// MaxPayload bounds the frame payload size in bytes. Defaults to
	// DefaultMaxPayload.
	MaxPayload int
	// ShedOnBackpressure sheds frames when no decode slot is free instead
	// of blocking the read loop (transport backpressure).
	ShedOnBackpressure bool
	// HARQ enables the server-side soft-combining ledger: CRC-failed
	// transmissions accumulate per-(cell,user) soft buffers
	// (uplink.HARQProcess) keyed by the wire RV flag, and a verified
	// combined decode counts the block as delivered in the KPI. Requires
	// the rate-matched TurboFull receiver (Turbo == TurboFull and
	// CodeRate > 0). The ledger absorbs each result's borrowed SoftBits
	// inside the result hook, before the worker reuses them. It is the
	// per-user state live cell migration checkpoints.
	HARQ bool
	// DrainTimeout bounds a control-plane cell drain: how long DrainCell
	// waits for in-flight subframes to complete before giving up.
	// Defaults to 2s.
	DrainTimeout time.Duration
	// Sampling is the obs sampling knob applied to each pool's telemetry.
	Sampling int
	// KPISampling is the KPI registry's sampling knob: 0 disables KPI
	// recording, any value >= 1 counts every block outcome.
	KPISampling int
	// KPIWindows are the KPI tumbling-window lengths in subframes
	// (kpi.DefaultWindows when nil).
	KPIWindows []int64
	// RingDepth is the per-cell admission event-ring capacity
	// (obs.DefaultRingDepth when 0).
	RingDepth int
	// Seed seeds the pools' steal RNGs.
	Seed uint64
	// OnResult, when non-nil, receives every admitted user's result, with
	// sched.Config.OnResult's borrow rule: Bits and SoftBits are valid
	// until it returns, and a consumer that keeps them copies them.
	OnResult func(uplink.UserResult)
}

func (c Config) withDefaults() (Config, error) {
	if c.Cells <= 0 {
		c.Cells = 1
	}
	if c.Cells > 1<<16 {
		return c, fmt.Errorf("fronthaul: %d cells exceeds the 16-bit cell index", c.Cells)
	}
	if c.Pools <= 0 {
		c.Pools = 1
	}
	if c.Pools > c.Cells {
		c.Pools = c.Cells
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) / c.Pools
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.Receiver.Antennas == 0 {
		c.Receiver = uplink.DefaultConfig()
	}
	if err := c.Receiver.Validate(); err != nil {
		return c, fmt.Errorf("fronthaul: %w", err)
	}
	if c.Delta <= 0 {
		c.Delta = 5 * time.Millisecond
	}
	if c.DeadlineBudget <= 0 {
		c.DeadlineBudget = c.Delta
	}
	if c.Capacity <= 0 {
		c.Capacity = 1.0
	}
	if c.Burst < c.Capacity {
		c.Burst = 2 * c.Capacity
	}
	if c.Predictor == nil {
		cp := NewCostPredictor(cost.Default(), c.Receiver.Antennas, c.Workers, c.Delta.Seconds())
		cp.Model.TurboFull = c.Receiver.Turbo == uplink.TurboFull
		cp.Model.TurboIterations = c.Receiver.TurboIterations
		cp.Turbo = &TurboTracker{}
		c.Predictor = cp
	}
	if c.SlotsPerConn <= 0 {
		c.SlotsPerConn = 4
	}
	if c.MaxUsers <= 0 || c.MaxUsers > MaxUsersPerFrame {
		c.MaxUsers = MaxUsersPerFrame
	}
	if c.MaxPayload <= 0 {
		c.MaxPayload = DefaultMaxPayload
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 2 * time.Second
	}
	if c.HARQ {
		if c.Receiver.Turbo != uplink.TurboFull || c.Receiver.CodeRate == 0 {
			return c, fmt.Errorf("fronthaul: HARQ requires the rate-matched TurboFull receiver (turbo=full, rate > 0)")
		}
	}
	return c, nil
}

// cell is the per-cell serving state: the admission controller, the pool
// the cell's subframes run on, and the accept/shed/deadline accounting.
type cell struct {
	id   uint16
	pool *sched.Pool
	pred Predictor
	ring *obs.EventRing
	// kpi is the server-wide KPI registry (scoped by cell id); the ingest
	// records DTX and shed/rejected users through it.
	kpi *kpi.Registry

	// mu serialises admission decisions and the estimate accounting
	// across connections carrying the same cell. The draining flag is
	// written under mu and re-checked under mu in the ingest's admission
	// section, so no frame can slip past a drain: once DrainCell returns,
	// every frame either completed (counted by inflight) or was
	// redirect-acked.
	mu          sync.Mutex
	adm         Admission
	offeredEst  float64
	admittedEst float64
	grantedEst  float64

	// draining marks the cell drained/redirecting: new frames are
	// answered AckRedirect without processing or KPI accounting. Set by
	// DrainCell (and left set after a migration), cleared by ResumeCell
	// and RestoreCell.
	draining atomic.Bool
	// inflight counts dispatched subframes whose completion hook has not
	// fired yet — the SubframeFin-driven drain barrier.
	inflight atomic.Int64

	framesAccepted         atomic.Int64
	framesShedLate         atomic.Int64
	framesShedOverload     atomic.Int64
	framesShedBackpressure atomic.Int64
	framesDuplicate        atomic.Int64
	framesRedirected       atomic.Int64
	usersAccepted          atomic.Int64
	usersRejected          atomic.Int64
	deadlineMet            atomic.Int64
	deadlineMissed         atomic.Int64
	harqRecovered          atomic.Int64
}

// countAdmit records an accepted subframe (k users admitted, rej
// rejected) and an admit instant on the cell's event ring.
//
//ltephy:hotpath — runs once per admitted frame in the serving loop.
func (c *cell) countAdmit(seq int64, k, rej int, now int64) {
	c.framesAccepted.Add(1)
	c.usersAccepted.Add(int64(k))
	c.usersRejected.Add(int64(rej))
	c.ring.Record(obs.Event{
		Start: now, End: now, Seq: seq,
		User: int32(k), Task: int32(rej),
		Worker: int16(c.id), Kind: obs.KindAdmit,
	})
}

// countShed records a whole-subframe shed (n users offered) and a shed
// instant on the cell's event ring.
//
//ltephy:hotpath — runs once per shed frame in the serving loop.
func (c *cell) countShed(status uint8, seq int64, n int, offeredEst float64) {
	switch status {
	case AckShedLate:
		c.framesShedLate.Add(1)
	case AckShedOverload:
		c.framesShedOverload.Add(1)
	default:
		c.framesShedBackpressure.Add(1)
	}
	c.usersRejected.Add(int64(n))
	now := obs.Nanotime()
	c.ring.Record(obs.Event{
		Start: now, End: now, Seq: seq,
		User: 0, Task: int32(n),
		Worker: int16(c.id), Kind: obs.KindShed,
	})
}

// CellStats is a snapshot of one cell's serving counters.
type CellStats struct {
	Cell                   int
	FramesAccepted         int64
	FramesShedLate         int64
	FramesShedOverload     int64
	FramesShedBackpressure int64
	// FramesDuplicate counts replayed frames (sequence not newer than the
	// last admitted) answered AckDuplicate without processing — NOT shed:
	// the original pass already accounted for them.
	FramesDuplicate int64
	// FramesRedirected counts frames answered AckRedirect while the cell
	// was draining or migrated away.
	FramesRedirected int64
	UsersAccepted    int64
	UsersRejected    int64
	DeadlineMet      int64
	DeadlineMissed   int64
	// HARQRecovered counts CRC-failed blocks later delivered by the
	// soft-combining ledger (Config.HARQ).
	HARQRecovered int64
	// Draining reports whether the cell is drained/redirecting.
	Draining bool
	// OfferedEst and AdmittedEst are the cumulative predicted activity of
	// all offered vs admitted users; 1 - AdmittedEst/OfferedEst is the
	// realized (activity-weighted) shed fraction. GrantedEst is the
	// activity budget the admission controller actually credited (burst +
	// clamped per-period refills); 1 - GrantedEst/OfferedEst is the shed
	// fraction the estimator predicted for the granted budget.
	OfferedEst  float64
	AdmittedEst float64
	GrantedEst  float64
}

// FramesShed sums the shed counters.
func (s CellStats) FramesShed() int64 {
	return s.FramesShedLate + s.FramesShedOverload + s.FramesShedBackpressure
}

// Server is the fronthaul serving layer: it accepts connections on any
// number of listeners, decodes frames, admits subframes per cell and
// dispatches them onto the cells' scheduler pools.
type Server struct {
	cfg      Config
	budgetNs int64
	pools    []*sched.Pool
	cells    []*cell
	kpi      *kpi.Registry
	// harq is the soft-combining ledger (nil unless Config.HARQ).
	harq *harqLedger

	mu      sync.Mutex
	lns     map[net.Listener]struct{}
	conns   map[net.Conn]struct{}
	closing bool
	wg      sync.WaitGroup

	corruptFrames atomic.Int64
}

// NewServer builds the pools and cells and returns a server ready to
// Serve listeners. Call Close to stop the pools.
func NewServer(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		budgetNs: cfg.DeadlineBudget.Nanoseconds(),
		lns:      map[net.Listener]struct{}{},
		conns:    map[net.Conn]struct{}{},
	}
	s.kpi = kpi.New(kpi.Config{Cells: cfg.Cells, MaxUsers: cfg.MaxUsers, Windows: cfg.KPIWindows})
	s.kpi.SetSampling(cfg.KPISampling)
	if cfg.HARQ {
		s.harq = newHARQLedger(cfg.Receiver)
	}
	// Feedback loop: when the predictor can absorb realized turbo
	// half-iteration counts, every result feeds it before reaching the
	// caller's hook, so admission estimates follow early termination.
	// Every result also lands in the KPI registry (CrcPass/CrcFail + bits)
	// before the caller's hook runs. With the HARQ ledger, a CRC failure
	// first tries soft-combining: a verified combined decode counts the
	// block as delivered (CrcPass with the recovered payload's bits)
	// instead of a NACK, keeping the one-bucket-per-user invariant.
	user := cfg.OnResult
	to, observeTurbo := cfg.Predictor.(interface{ ObserveTurbo(int) })
	reg := s.kpi
	onResult := func(r uplink.UserResult) {
		if observeTurbo {
			to.ObserveTurbo(r.TurboHalfIters)
		}
		crcOK, bits := r.CRCOK, 8*len(r.Bits)
		if s.harq != nil {
			if crcOK {
				s.harq.clear(r.Cell, r.UserID)
			} else if payload, ok := s.harq.absorb(r); ok {
				crcOK, bits = true, 8*len(payload)
				if c := s.lookupCell(r.Cell); c != nil {
					c.harqRecovered.Add(1)
				}
			}
		}
		reg.RecordResult(r.Cell, r.Seq, r.UserID, crcOK, bits)
		if user != nil {
			user(r)
		}
	}
	s.pools = make([]*sched.Pool, cfg.Pools)
	for i := range s.pools {
		pc := sched.DefaultPoolConfig()
		pc.Workers = cfg.Workers
		pc.Receiver = cfg.Receiver
		pc.Seed = cfg.Seed + uint64(i)
		pc.OnResult = onResult
		pool, err := sched.NewPool(pc)
		if err != nil {
			for _, p := range s.pools[:i] {
				p.Close()
			}
			return nil, err
		}
		pool.Telemetry().SetSampling(cfg.Sampling)
		pool.Telemetry().Deadline().SetBudget(s.budgetNs)
		s.pools[i] = pool
	}
	s.cells = make([]*cell, cfg.Cells)
	for i := range s.cells {
		s.cells[i] = &cell{
			id:   uint16(i),
			pool: s.pools[i%cfg.Pools],
			pred: cfg.Predictor,
			ring: obs.NewEventRing(cfg.RingDepth),
			kpi:  s.kpi,
			adm:  Admission{Capacity: cfg.Capacity, Burst: cfg.Burst},
		}
	}
	return s, nil
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// CellStats snapshots one cell's counters.
func (s *Server) CellStats(i int) CellStats {
	c := s.cells[i]
	c.mu.Lock()
	offered, admitted, granted := c.offeredEst, c.admittedEst, c.grantedEst
	c.mu.Unlock()
	return CellStats{
		Cell:                   i,
		FramesAccepted:         c.framesAccepted.Load(),
		FramesShedLate:         c.framesShedLate.Load(),
		FramesShedOverload:     c.framesShedOverload.Load(),
		FramesShedBackpressure: c.framesShedBackpressure.Load(),
		FramesDuplicate:        c.framesDuplicate.Load(),
		FramesRedirected:       c.framesRedirected.Load(),
		UsersAccepted:          c.usersAccepted.Load(),
		UsersRejected:          c.usersRejected.Load(),
		DeadlineMet:            c.deadlineMet.Load(),
		DeadlineMissed:         c.deadlineMissed.Load(),
		HARQRecovered:          c.harqRecovered.Load(),
		Draining:               c.draining.Load(),
		OfferedEst:             offered,
		AdmittedEst:            admitted,
		GrantedEst:             granted,
	}
}

// Stats snapshots every cell.
func (s *Server) Stats() []CellStats {
	out := make([]CellStats, len(s.cells))
	for i := range out {
		out[i] = s.CellStats(i)
	}
	return out
}

// CorruptFrames counts connections' framing violations (each closes its
// connection).
func (s *Server) CorruptFrames() int64 { return s.corruptFrames.Load() }

// Pools returns the scheduler pools (for telemetry access).
func (s *Server) Pools() []*sched.Pool { return s.pools }

// KPI returns the server's KPI registry (per-cell/per-user EBLer
// counters; recording is gated by Config.KPISampling).
func (s *Server) KPI() *kpi.Registry { return s.kpi }

// Serve accepts connections on ln until the listener is closed (by Close
// or externally). It always returns a non-nil error; after Close the
// error is net.ErrClosed.
//
// Per-connection handler lifecycle is owned by s.wg: Add(1) under the
// mutex before the spawn, handleConn defers Done, Close joins via
// wg.Wait after closing every connection.
//
//ltephy:spawn-point
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// lookupCell resolves a frame's cell index.
func (s *Server) lookupCell(id uint16) *cell {
	if int(id) >= len(s.cells) {
		return nil
	}
	return s.cells[id]
}

// handleConn runs one connection: an ingest loop decoding frames and a
// writer goroutine delivering acks. Every frame gets exactly one ack
// (done or shed); teardown reclaims all slots first, which guarantees
// every in-flight subframe's completion hook has fired before the ack
// channel closes.
//
// The ack writer is bracketed by the local writer WaitGroup: Add before
// the spawn, Done deferred in the closure, joined by writer.Wait before
// the connection closes.
//
//ltephy:spawn-point
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	acks := make(chan Ack, s.cfg.SlotsPerConn+64)
	in := &Ingest{
		maxUsers:           s.cfg.MaxUsers,
		maxPayload:         s.cfg.MaxPayload,
		antennas:           uint8(s.cfg.Receiver.Antennas),
		shedOnBackpressure: s.cfg.ShedOnBackpressure,
		lookup:             s.lookupCell,
		dispatch:           func(c *cell, sl *Slot) { c.pool.SubmitSubframeFin(&sl.sf, sl.fin) },
		ack:                func(a Ack) { acks <- a },
		slots:              make(chan *Slot, s.cfg.SlotsPerConn),
	}
	for i := 0; i < s.cfg.SlotsPerConn; i++ {
		sl := newSlot(s.cfg.MaxUsers, s.cfg.Receiver.Antennas)
		sl.fin = sched.NewSubframeFin(func() { s.complete(in, acks, sl) })
		in.slots <- sl
	}

	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		var buf [AckLen]byte
		broken := false
		for a := range acks {
			if broken {
				continue // keep draining so completions never block
			}
			PutAck(&buf, a)
			if _, err := conn.Write(buf[:]); err != nil {
				broken = true
			}
		}
	}()

	br := bufio.NewReaderSize(conn, 1<<16)
	for {
		if err := in.ReadFrame(br); err != nil {
			if IsDecodeError(err) {
				s.corruptFrames.Add(1)
			}
			break
		}
	}
	// Reclaim every slot: blocks until all dispatched subframes have
	// completed and acked, then release the writer and the socket.
	for i := 0; i < s.cfg.SlotsPerConn; i++ {
		<-in.slots
	}
	close(acks)
	writer.Wait()
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// complete is the subframe-completion hook, run on a worker goroutine:
// charge the deadline, ack the frame, recycle the slot.
func (s *Server) complete(in *Ingest, acks chan Ack, sl *Slot) {
	now := obs.Nanotime()
	c := s.cells[sl.cell]
	if now-sl.dispatchNs <= s.budgetNs {
		c.deadlineMet.Add(1)
	} else {
		c.deadlineMissed.Add(1)
	}
	acks <- Ack{Cell: sl.cell, Status: AckDone, UsersAccepted: sl.admitted, Seq: sl.seq}
	sl.recycle()
	in.slots <- sl
	// Decrement last: a drain observing inflight == 0 knows the ack has
	// been queued and the slot returned.
	c.inflight.Add(-1)
}

// Close stops accepting, closes every live connection, waits for the
// handlers to finish and shuts the pools down.
func (s *Server) Close() {
	s.mu.Lock()
	s.closing = true
	for ln := range s.lns {
		ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	for _, p := range s.pools {
		p.Close()
	}
}
