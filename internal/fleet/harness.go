package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"ltephy/internal/fronthaul"
	"ltephy/internal/obs"
	"ltephy/internal/obs/kpi"
	"ltephy/internal/params"
	"ltephy/internal/rng"
	"ltephy/internal/sched"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

// HarnessConfig configures the fleet load harness: one replaying
// generator per cell, routed by the coordinator's placement map, with a
// diurnal offered-load ramp. Unlike the single-server loopback
// generator, every frame is retained until its terminal ack: a worker
// crash or live migration triggers re-resolution and replay, and the
// servers' duplicate detection makes the replay idempotent — no
// subframe lost, none double-counted.
type HarnessConfig struct {
	// Coordinator resolves cell placement and is re-queried on redirects
	// and connection loss.
	Coordinator *Coordinator
	// Cells is the number of cells to drive (0..Cells-1).
	Cells int
	// Subframes is the sequence count per cell.
	Subframes int
	// Interval paces frames per cell (0 = as fast as the transport
	// allows).
	Interval time.Duration
	// Load scales the offered users per subframe on top of the diurnal
	// curve (like lte-bench -load).
	Load float64
	// SubframesPerDay compresses the diurnal day curve (default: the
	// run length, so one run spans one day).
	SubframesPerDay int
	// FloorLoad/PeakLoad bound the diurnal curve (defaults 0.05/0.6).
	FloorLoad, PeakLoad float64
	// Seed drives the per-cell parameter models and signal synthesis.
	Seed uint64
	// MaxPRB clamps per-user PRBs (0 = no clamp).
	MaxPRB int
	// MaxUsers caps users per frame. Defaults to MaxUsersPerFrame.
	MaxUsers int
	// Window bounds unacknowledged frames in flight per cell. Defaults
	// to 32.
	Window int
	// DTXProb flags each offered user DTX (scheduled-but-absent) with
	// this probability, from a per-cell rng stream. The flag is baked
	// into the retained frame bytes, so replays carry identical DTX sets
	// and the servers' exactly-once accounting is exercised end to end.
	DTXProb float64
	// TX configures signal synthesis (must match the workers' receiver).
	TX tx.Config
	// CacheSets rotates input-data realisations (default 4).
	CacheSets int
	// Timeout bounds the whole run per cell, including crash-restart
	// stalls. Defaults to 120s.
	Timeout time.Duration
	// OnSeq, when non-nil, is called by cell 0's generator after sending
	// each sequence — the smoke harness's hook for forcing a migration
	// or a worker crash at a deterministic point in the run.
	OnSeq func(seq int64)
}

// HarnessStats is the fleet-wide result of a harness run.
type HarnessStats struct {
	// Sent counts first transmissions (Subframes x Cells when the run
	// completed); Replayed counts retransmissions after redirects or
	// connection loss; Reconnects counts placement re-resolutions.
	Sent, Replayed, Reconnects int64
	// Terminal ack dispositions. Duplicate acks mean the original ack
	// was lost but the subframe WAS processed — never a loss.
	Done, ShedOverload, ShedBackpressure, Duplicate int64
	// UsersSent/UsersAccepted/UsersDTX mirror the loopback generator.
	UsersSent, UsersAccepted, UsersDTX int64
	// BadAcks counts unparseable or unknown-sequence acks.
	BadAcks int64
	// Lost counts subframes with no terminal ack when the run gave up —
	// the zero-loss acceptance gate.
	Lost int64
	// P50/P90/P99/P999/Max are send-to-done latency percentiles.
	P50, P90, P99, P999, Max time.Duration
	// Fleet is the aggregated per-worker /fetch rollup.
	Fleet kpi.FleetFetch
	// PredictedShed is the estimator-predicted shed budget: the fraction
	// of offered activity the granted admission budget (burst + one
	// capacity refill per subframe period, per cell) cannot cover.
	// MeasuredShed is the realized activity-weighted shed fraction
	// (1 - admitted/offered estimated activity) — the fleet-wide
	// counterpart of the single-process overload-soak guarantee.
	PredictedShed, MeasuredShed float64
}

// String renders the greppable summary line the fleet-smoke CI job
// asserts on.
func (h HarnessStats) String() string {
	return fmt.Sprintf(
		"sent=%d replayed=%d reconnects=%d done=%d shed_overload=%d shed_backpressure=%d "+
			"duplicate=%d lost=%d users_sent=%d users_accepted=%d users_dtx=%d corrupt=%d "+
			"kpi_total=%d predicted_shed=%.4f measured_shed=%.4f "+
			"p50=%v p90=%v p99=%v p999=%v max=%v",
		h.Sent, h.Replayed, h.Reconnects, h.Done, h.ShedOverload, h.ShedBackpressure,
		h.Duplicate, h.Lost, h.UsersSent, h.UsersAccepted, h.UsersDTX, h.BadAcks,
		h.Fleet.Total.CrcPass+h.Fleet.Total.CrcFail+h.Fleet.Total.Dtx+h.Fleet.Total.Skipped,
		h.PredictedShed, h.MeasuredShed,
		h.P50, h.P90, h.P99, h.P999, h.Max)
}

// cellHarness is one cell's replaying generator.
//
// The replay ring (frames) retains every frame newer than the cell's
// stable sequence — the horizon the coordinator's last checkpoint
// covers — even after its terminal ack: KPI counts recorded after the
// checkpoint die with a crashing worker, and only a replay of those
// acked-but-unstable frames restores them (the deterministic admission
// re-admits each exactly once). Frames at or below the stable horizon
// are trimmed once acked.
type cellHarness struct {
	cfg    HarnessConfig
	cellID uint16
	disp   *sched.Dispatcher

	conn      net.Conn
	frames    map[int64][]byte // replay ring: seq > stable, or unacked
	sendNs    map[int64]int64
	acked     map[int64]bool
	unackedN int
	lastTrim int64 // stable horizon the ring was last trimmed to

	stats     HarnessStats
	latencies []int64
	err       error
}

// RunHarness drives the fleet and returns the aggregated stats. The
// per-cell generators are joined before aggregation; the first cell
// error is returned (partial stats intact).
//
//ltephy:spawn-point — one generator per cell, wg.Add before each spawn,
// deferred Done, wg.Wait joins all.
func RunHarness(cfg HarnessConfig) (HarnessStats, error) {
	if cfg.Coordinator == nil {
		return HarnessStats{}, errors.New("fleet: harness needs a Coordinator")
	}
	if cfg.Cells <= 0 {
		cfg.Cells = 1
	}
	if cfg.Subframes <= 0 {
		cfg.Subframes = 1
	}
	if cfg.Load <= 0 {
		cfg.Load = 1
	}
	if cfg.SubframesPerDay <= 0 {
		cfg.SubframesPerDay = cfg.Subframes
		if cfg.SubframesPerDay < 24 {
			cfg.SubframesPerDay = 24
		}
	}
	if cfg.FloorLoad <= 0 {
		cfg.FloorLoad = 0.05
	}
	if cfg.PeakLoad <= 0 {
		cfg.PeakLoad = 0.6
	}
	if cfg.MaxUsers <= 0 || cfg.MaxUsers > fronthaul.MaxUsersPerFrame {
		cfg.MaxUsers = fronthaul.MaxUsersPerFrame
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.CacheSets <= 0 {
		cfg.CacheSets = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 120 * time.Second
	}
	if cfg.TX.Receiver.Antennas == 0 {
		cfg.TX = tx.DefaultConfig()
	}

	disp := sched.NewDispatcher(sched.DispatcherConfig{
		Delta:     time.Millisecond,
		TX:        cfg.TX,
		CacheSets: cfg.CacheSets,
		Seed:      cfg.Seed,
	})

	gens := make([]*cellHarness, cfg.Cells)
	var wg sync.WaitGroup
	for c := range gens {
		g := &cellHarness{
			cfg:      cfg,
			cellID:   uint16(c),
			disp:     disp,
			frames:   map[int64][]byte{},
			sendNs:   map[int64]int64{},
			acked:    map[int64]bool{},
			lastTrim: -1,
		}
		gens[c] = g
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.err = g.run()
		}()
	}
	wg.Wait()

	var total HarnessStats
	var lats []int64
	var firstErr error
	for _, g := range gens {
		total.Sent += g.stats.Sent
		total.Replayed += g.stats.Replayed
		total.Reconnects += g.stats.Reconnects
		total.Done += g.stats.Done
		total.ShedOverload += g.stats.ShedOverload
		total.ShedBackpressure += g.stats.ShedBackpressure
		total.Duplicate += g.stats.Duplicate
		total.UsersSent += g.stats.UsersSent
		total.UsersAccepted += g.stats.UsersAccepted
		total.UsersDTX += g.stats.UsersDTX
		total.BadAcks += g.stats.BadAcks
		total.Lost += int64(g.unackedN)
		lats = append(lats, g.latencies...)
		if g.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cell %d: %w", g.cellID, g.err)
		}
	}
	total.P50, total.P90, total.P99, total.P999, total.Max = harnessPercentiles(lats)

	// Fleet rollups: scrape every worker's /fetch and fold, then derive
	// the predicted vs measured shed fractions from the serving stats.
	if fleet, err := scrapeFleetKPI(cfg.Coordinator); err == nil {
		total.Fleet = fleet
	} else if firstErr == nil {
		firstErr = err
	}
	if stats, err := cfg.Coordinator.Stats(); err == nil {
		var offered, admitted, overBudget float64
		for _, st := range stats {
			offered += st.OfferedEst
			admitted += st.AdmittedEst
			// GrantedEst is the budget admission actually credited to the
			// cell (burst + clamped refills); offered activity beyond it is
			// the shed the estimator predicted. Checkpoints carry all three
			// counters, so the rollup is exact across migrations and
			// crash-restores.
			if over := st.OfferedEst - st.GrantedEst; over > 0 {
				overBudget += over
			}
		}
		if offered > 0 {
			total.PredictedShed = overBudget / offered
			total.MeasuredShed = 1 - admitted/offered
		}
	} else if firstErr == nil {
		firstErr = err
	}
	return total, firstErr
}

// run sends this cell's subframes with replay-until-terminal-ack
// delivery.
func (g *cellHarness) run() error {
	defer func() {
		if g.conn != nil {
			g.conn.Close()
		}
	}()
	deadline := time.Now().Add(g.cfg.Timeout)
	model, err := params.NewDiurnal(g.cfg.Seed+uint64(g.cellID), g.cfg.SubframesPerDay,
		g.cfg.FloorLoad, g.cfg.PeakLoad)
	if err != nil {
		return err
	}
	var dtxRng *rng.RNG
	if g.cfg.DTXProb > 0 {
		dtxRng = rng.New(g.cfg.Seed + uint64(g.cellID)*7919)
	}
	var buf []byte
	var users []fronthaul.FrameUser
	var ps []uplink.UserParams
	loadAcc := 0.0
	var ticker *time.Ticker
	if g.cfg.Interval > 0 {
		ticker = time.NewTicker(g.cfg.Interval)
		defer ticker.Stop()
	}
	for seq := int64(0); seq < int64(g.cfg.Subframes); seq++ {
		// Offered users: Load diurnal draws concatenated (fractions
		// alternate), exactly like the loopback generator's -load.
		draws := int(g.cfg.Load)
		loadAcc += g.cfg.Load - float64(draws)
		if loadAcc >= 1 {
			draws++
			loadAcc--
		}
		if draws < 1 {
			draws = 1
		}
		ps = ps[:0]
		for d := 0; d < draws; d++ {
			for _, p := range model.Next() {
				if g.cfg.MaxPRB > 0 && p.PRB > g.cfg.MaxPRB {
					p.PRB = g.cfg.MaxPRB
				}
				if len(ps) < g.cfg.MaxUsers {
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
			prio := uint8(0)
			if slot < 255 {
				prio = uint8(255 - slot)
			}
			fu := fronthaul.FrameUser{Data: u, Priority: prio}
			if dtxRng != nil && dtxRng.Float64() < g.cfg.DTXProb {
				fu.DTX = true
				g.stats.UsersDTX++
			}
			users = append(users, fu)
		}
		buf, err = fronthaul.AppendFrame(nil, g.cellID, seq, users)
		if err != nil {
			return err
		}
		g.frames[seq] = buf
		g.sendNs[seq] = obs.Nanotime()
		g.unackedN++
		g.stats.Sent++
		g.stats.UsersSent += int64(len(users))
		if err := g.write(buf, deadline); err != nil {
			return err
		}
		if g.cfg.OnSeq != nil && g.cellID == 0 {
			g.cfg.OnSeq(seq)
		}
		g.trim()
		// Drain whatever acks are ready; block only when the window is
		// full.
		if err := g.drainAcks(deadline, g.unackedN >= g.cfg.Window); err != nil {
			return err
		}
		if ticker != nil {
			<-ticker.C
		}
	}
	// Tail: collect terminal acks for everything still in flight.
	for g.unackedN > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d subframes unacked at timeout", g.unackedN)
		}
		if err := g.drainAcks(deadline, true); err != nil {
			return err
		}
	}
	return nil
}

// trim retires acked frames the stable horizon covers: a crash-restore
// resumes at the checkpointed sequence, so nothing at or below it will
// ever need replaying again.
func (g *cellHarness) trim() {
	stable := g.cfg.Coordinator.StableSeq(int(g.cellID))
	if stable <= g.lastTrim {
		return
	}
	g.lastTrim = stable
	for seq := range g.frames {
		if seq <= stable && g.acked[seq] {
			delete(g.frames, seq)
			delete(g.sendNs, seq)
		}
	}
}

// write sends one frame — already in the replay ring — reconnecting (with
// replay) as needed.
func (g *cellHarness) write(frame []byte, deadline time.Time) error {
	for {
		if g.conn == nil {
			if err := g.reconnect(deadline); err != nil {
				return err
			}
			if g.conn != nil {
				// The replay carried the whole ring, frame included. Writing
				// it again would race the copy's AckDuplicate (immediate)
				// against the original's AckDone (after processing) for
				// which one the generator counts.
				return nil
			}
			continue // the replay lost the connection again
		}
		if _, err := g.conn.Write(frame); err != nil {
			g.dropConn()
			continue
		}
		return nil
	}
}

// dropConn closes the connection; the next write or drain reconnects.
func (g *cellHarness) dropConn() {
	if g.conn != nil {
		g.conn.Close()
		g.conn = nil
	}
}

// reconnect re-resolves the cell's placement, dials its current owner
// and replays every unacknowledged frame in sequence order. Retries
// (the owner may be mid-restart or mid-migration) until deadline.
func (g *cellHarness) reconnect(deadline time.Time) error {
	g.dropConn()
	g.stats.Reconnects++
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: cell %d could not reach its worker before timeout", g.cellID)
		}
		network, addr, _, err := g.cfg.Coordinator.Resolve(int(g.cellID))
		if err == nil {
			var conn net.Conn
			if conn, err = net.DialTimeout(network, addr, time.Second); err == nil {
				g.conn = conn
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Replay the whole retained ring oldest-first: on a restored worker
	// the in-order duplicate detection answers AckDuplicate for
	// everything at or below its checkpointed sequence and re-admits the
	// rest exactly once.
	seqs := make([]int64, 0, len(g.frames))
	for seq := range g.frames {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		if _, err := g.conn.Write(g.frames[seq]); err != nil {
			g.dropConn()
			return nil // next write/drain retries the whole cycle
		}
		g.stats.Replayed++
	}
	return nil
}

// drainAcks consumes available acks. When block is true it waits (in
// short read-deadline slices so worker crashes are noticed) until the
// window has room again; otherwise it polls and returns.
func (g *cellHarness) drainAcks(deadline time.Time, block bool) error {
	var buf [fronthaul.AckLen]byte
	for {
		if !block && g.unackedN == 0 {
			return nil
		}
		if g.conn == nil {
			if err := g.reconnect(deadline); err != nil {
				return err
			}
		}
		wait := 5 * time.Millisecond
		if block {
			wait = 200 * time.Millisecond
		}
		_ = g.conn.SetReadDeadline(time.Now().Add(wait))
		_, err := io.ReadFull(g.conn, buf[:])
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if !block || g.unackedN < g.cfg.Window {
					return nil
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("fleet: cell %d window stalled (%d unacked)", g.cellID, g.unackedN)
				}
				continue
			}
			// Connection died mid-stream (worker crash): reconnect and
			// replay on the next loop.
			g.dropConn()
			continue
		}
		a, perr := fronthaul.ParseAck(&buf)
		if perr != nil || a.Cell != g.cellID {
			g.stats.BadAcks++
			continue
		}
		g.handleAck(a)
		if block && g.unackedN < g.cfg.Window {
			block = false
		}
	}
}

// handleAck applies one ack. The first terminal ack per sequence wins
// (later echoes from replays are ignored); redirects are not terminal
// and trigger re-resolution.
func (g *cellHarness) handleAck(a fronthaul.Ack) {
	if a.Seq < 0 || a.Seq >= int64(g.cfg.Subframes) {
		g.stats.BadAcks++
		return
	}
	if a.Status == fronthaul.AckRedirect {
		// Not terminal: the owner is draining or changed. Reconnect (and
		// replay) against the refreshed placement.
		g.dropConn()
		return
	}
	if g.acked[a.Seq] {
		return // replay echo; the first terminal ack already counted
	}
	switch a.Status {
	case fronthaul.AckDone:
		g.stats.Done++
		g.stats.UsersAccepted += int64(a.UsersAccepted)
		g.latencies = append(g.latencies, obs.Nanotime()-g.sendNs[a.Seq])
	case fronthaul.AckShedOverload, fronthaul.AckShedLate:
		g.stats.ShedOverload++
	case fronthaul.AckShedBackpressure:
		g.stats.ShedBackpressure++
	case fronthaul.AckDuplicate:
		// The original ack was lost with its connection, but the subframe
		// was processed — delivery is complete, just not measurable for
		// latency.
		g.stats.Duplicate++
	default:
		g.stats.BadAcks++
		return
	}
	g.acked[a.Seq] = true
	g.unackedN--
}

// scrapeFleetKPI fetches every worker's /fetch snapshot and aggregates.
func scrapeFleetKPI(co *Coordinator) (kpi.FleetFetch, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	var perWorker [][]kpi.CellFetch
	for i := 0; i < co.cfg.Workers; i++ {
		w, err := co.Worker(i)
		if err != nil {
			continue // a dead worker has nothing to scrape
		}
		url := w.FetchURL()
		if url == "" {
			return kpi.FleetFetch{}, fmt.Errorf("fleet: worker %d has no metrics endpoint to scrape", i)
		}
		resp, err := client.Get(url + "/fetch")
		if err != nil {
			return kpi.FleetFetch{}, fmt.Errorf("fleet: scrape worker %d: %w", i, err)
		}
		var doc struct {
			Cells []kpi.CellFetch `json:"cells"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return kpi.FleetFetch{}, fmt.Errorf("fleet: parse worker %d /fetch: %w", i, err)
		}
		perWorker = append(perWorker, doc.Cells)
	}
	return kpi.AggregateCells(perWorker...), nil
}

// harnessPercentiles mirrors the loopback generator's percentile shape.
func harnessPercentiles(lats []int64) (p50, p90, p99, p999, max time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(lats)-1))
		return time.Duration(lats[i])
	}
	return at(0.50), at(0.90), at(0.99), at(0.999), time.Duration(lats[len(lats)-1])
}
