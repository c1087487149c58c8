// lte-enb is the fronthaul serving daemon: a multi-cell eNodeB baseband
// built on the benchmark receiver. It listens on TCP or a Unix socket for
// length-prefixed subframe frames (see internal/fronthaul), shards the
// cells across scheduler pools and runs estimator-driven admission
// control, shedding late subframes whole and rejecting lowest-priority
// users first under overload.
//
// Usage:
//
//	lte-enb -listen :5061 -cells 4 -pools 2
//	lte-enb -listen /tmp/enb.sock -network unix -capacity 0.8
//	lte-enb -listen :5061 -metrics-addr :9100   # Prometheus + Chrome traces
//
// Drive it with the wire generator (lte-bench -loopback):
//
//	lte-bench -loopback :5061 -cells 4 -subframes 2000 -speedup 2
//
// With -control the daemon also serves the fleet control protocol
// (drain, checkpoint, restore, release, stats — see DESIGN.md §13), and
// the same binary doubles as the operator client:
//
//	lte-enb -listen :5061 -control :5062 -cells 4
//	lte-enb -drain 2 -connect :5062 -drain-timeout 2s   # drain one cell
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ltephy/internal/fronthaul"
	"ltephy/internal/uplink"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() { <-sig; close(stop) }()
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "lte-enb:", err)
		os.Exit(1)
	}
}

// run parses flags, serves until stop closes (or the listener fails), then
// shuts down and prints the per-cell serving summary. Extracted from main
// so the command is testable.
func run(args []string, w io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("lte-enb", flag.ContinueOnError)
	fs.SetOutput(w)
	listen := fs.String("listen", ":5061", "listen address (host:port, or a socket path with -network unix)")
	network := fs.String("network", "tcp", "listener transport: tcp or unix")
	cells := fs.Int("cells", 1, "cells served (frames address cells 0..cells-1)")
	pools := fs.Int("pools", 1, "scheduler pools the cells are sharded across")
	workers := fs.Int("workers", 0, "workers per pool (0 = GOMAXPROCS/pools)")
	delta := fs.Duration("delta", 5*time.Millisecond, "subframe period: admission budget refill interval (the paper's DELTA)")
	deadline := fs.Duration("deadline", 0, "dispatch-to-completion deadline budget (0 = delta)")
	capacity := fs.Float64("capacity", 1.0, "admission activity budget per period (1.0 = the whole pool)")
	burst := fs.Float64("burst", 0, "admission budget cap across idle periods (0 = 2x capacity)")
	slots := fs.Int("conn-slots", 4, "decode slots per connection (bounds frames in flight)")
	maxUsers := fs.Int("maxusers", fronthaul.MaxUsersPerFrame, "user records allowed per frame")
	shedBackpressure := fs.Bool("shed-backpressure", false, "shed frames when no decode slot is free instead of blocking the read loop")
	turbo := fs.String("turbo", "passthrough", "turbo mode: passthrough (paper) or full")
	turboIter := fs.Int("turbo-iter", 0, "max full turbo iterations per code block (0 = receiver default)")
	obsSampling := fs.Int("obs", 0, "telemetry sampling knob for the pools (0 = off)")
	kpiSampling := fs.Int("kpi", 1, "KPI accounting knob: 1 = count every block outcome, 0 = off")
	kpiWindows := fs.String("kpi-windows", "", "comma-separated KPI window lengths in subframes (default 200,1000,10000)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /fetch, /trace, /trace/admission and /debug/vars on this address")
	seed := fs.Uint64("seed", 1, "steal-RNG seed for the pools")
	control := fs.String("control", "", "serve the fleet control protocol (drain/checkpoint/restore/stats) on this address")
	drainTimeout := fs.Duration("drain-timeout", 2*time.Second, "drain barrier timeout: how long a drain waits for in-flight subframes")
	harq := fs.Bool("harq", false, "keep per-user HARQ soft buffers and combine retransmissions (needs -turbo full and -rate)")
	rate := fs.Float64("rate", 0, "turbo code rate for rate matching (0 = none; required by -harq)")
	portsFile := fs.String("ports-file", "", "write the bound listener addresses as JSON once serving (fleet launcher handshake)")
	drainCell := fs.Int("drain", -1, "client mode: drain this cell on a running daemon (-connect) and exit")
	connect := fs.String("connect", "", "control address of a running daemon (client mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *drainCell >= 0 {
		if *connect == "" {
			return errors.New("-drain needs -connect (the daemon's -control address)")
		}
		ctl, err := fronthaul.DialControl(*network, *connect)
		if err != nil {
			return err
		}
		defer ctl.Close()
		if err := ctl.Drain(uint16(*drainCell), *drainTimeout); err != nil {
			return err
		}
		fmt.Fprintf(w, "lte-enb: cell %d drained\n", *drainCell)
		return nil
	}

	rc := uplink.DefaultConfig()
	switch *turbo {
	case "passthrough":
	case "full":
		rc.Turbo = uplink.TurboFull
	default:
		return fmt.Errorf("unknown turbo mode %q", *turbo)
	}
	if *turboIter > 0 {
		rc.TurboIterations = *turboIter
	}
	rc.CodeRate = *rate
	windows, err := parseWindows(*kpiWindows)
	if err != nil {
		return err
	}

	srv, err := fronthaul.NewServer(fronthaul.Config{
		Cells:              *cells,
		Pools:              *pools,
		Workers:            *workers,
		Receiver:           rc,
		Delta:              *delta,
		DeadlineBudget:     *deadline,
		Capacity:           *capacity,
		Burst:              *burst,
		SlotsPerConn:       *slots,
		MaxUsers:           *maxUsers,
		ShedOnBackpressure: *shedBackpressure,
		HARQ:               *harq,
		DrainTimeout:       *drainTimeout,
		Sampling:           *obsSampling,
		KPISampling:        *kpiSampling,
		KPIWindows:         windows,
		Seed:               *seed,
	})
	if err != nil {
		return err
	}

	if *network == "unix" {
		// A stale socket file from a previous run blocks the bind.
		if _, err := os.Stat(*listen); err == nil {
			os.Remove(*listen)
		}
	}
	ln, err := net.Listen(*network, *listen)
	if err != nil {
		srv.Close()
		return err
	}

	var mln net.Listener
	if *metricsAddr != "" {
		mln, err = net.Listen("tcp", *metricsAddr)
		if err != nil {
			ln.Close()
			srv.Close()
			return err
		}
		defer mln.Close()
		go func() { _ = http.Serve(mln, srv.Handler()) }()
		fmt.Fprintf(w, "lte-enb: telemetry on http://%s\n", mln.Addr())
	}

	var cln net.Listener
	if *control != "" {
		cln, err = net.Listen("tcp", *control)
		if err != nil {
			ln.Close()
			srv.Close()
			return err
		}
		go func() { _ = srv.ServeControl(cln) }()
		fmt.Fprintf(w, "lte-enb: control on %s\n", cln.Addr())
	}

	if *portsFile != "" {
		// The fleet launcher polls this file to learn the ephemeral
		// addresses; write-then-rename so it never reads a partial JSON.
		pf := struct {
			Data    string `json:"data"`
			Control string `json:"control,omitempty"`
			Metrics string `json:"metrics,omitempty"`
		}{Data: ln.Addr().String()}
		if cln != nil {
			pf.Control = cln.Addr().String()
		}
		if mln != nil {
			pf.Metrics = mln.Addr().String()
		}
		data, err := json.Marshal(pf)
		if err == nil {
			tmp := *portsFile + ".tmp"
			if err = os.WriteFile(tmp, data, 0o644); err == nil {
				err = os.Rename(tmp, *portsFile)
			}
		}
		if err != nil {
			ln.Close()
			srv.Close()
			return fmt.Errorf("write -ports-file: %w", err)
		}
	}

	ecfg := srv.Config()
	fmt.Fprintf(w, "lte-enb: serving %d cells on %d pools x %d workers, %s %s (delta %v, capacity %.2f)\n",
		ecfg.Cells, ecfg.Pools, ecfg.Workers, *network, ln.Addr(), ecfg.Delta, ecfg.Capacity)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case <-stop:
		fmt.Fprintln(w, "lte-enb: shutting down")
	case err := <-serveErr:
		if err != nil && !errors.Is(err, net.ErrClosed) {
			srv.Close()
			return err
		}
	}
	srv.Close()

	for _, st := range srv.Stats() {
		fmt.Fprintf(w, "cell %d: accepted=%d shed_late=%d shed_overload=%d shed_backpressure=%d "+
			"users_accepted=%d users_rejected=%d deadline_met=%d deadline_missed=%d "+
			"offered_est=%.3f admitted_est=%.3f duplicate=%d redirected=%d harq_recovered=%d\n",
			st.Cell, st.FramesAccepted, st.FramesShedLate, st.FramesShedOverload,
			st.FramesShedBackpressure, st.UsersAccepted, st.UsersRejected,
			st.DeadlineMet, st.DeadlineMissed, st.OfferedEst, st.AdmittedEst,
			st.FramesDuplicate, st.FramesRedirected, st.HARQRecovered)
	}
	fmt.Fprintf(w, "corrupt_frames=%d\n", srv.CorruptFrames())
	if reg := srv.KPI(); reg.Enabled() {
		for _, c := range reg.Snapshot() {
			f := c.Cumulative
			fmt.Fprintf(w, "kpi cell %d: reliability=%d bler=%.3f%% throughput=%.1fkbps "+
				"crc_pass=%d crc_fail=%d dtx=%d skipped=%d users=%d\n",
				c.Cell, f.Reliability, f.Bler, f.Throughput,
				f.CrcPass, f.CrcFail, f.Dtx, f.Skipped, len(c.Users))
		}
	}
	return nil
}

// parseWindows parses the -kpi-windows comma-separated subframe lengths
// ("" = package defaults).
func parseWindows(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -kpi-windows entry %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
