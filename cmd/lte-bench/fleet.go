package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"ltephy/internal/fleet"
	"ltephy/internal/fronthaul"
	"ltephy/internal/uplink/tx"
)

// fleetRun carries the -fleet mode knobs from the flag set.
type fleetRun struct {
	Procs     int // worker processes
	Cells     int // fleet-wide cells
	Subframes int // sequences per cell
	Workers   int // scheduler workers per worker process
	Delta     time.Duration
	Capacity  float64
	Load      float64
	Day       int // diurnal day length in subframes (0 = run length)
	DTXProb   float64
	Seed      uint64
	MaxPRB    int
	TX        tx.Config

	EnbBin string // spawn real processes when set; in-process otherwise
	Dir    string // exec scratch dir ("" = temp)

	MigrateAt int64 // live-migrate one cell at this sequence (0 = off)
	CrashAt   int64 // checkpoint round + kill worker 0 at this sequence (0 = off)

	AssertExactlyOnce bool
	AssertShedWithin  float64 // relative tolerance vs predicted shed (0 = off)
	JSONOut           string
}

// fleetSummary is the machine-readable artifact the smoke job uploads.
type fleetSummary struct {
	Mode      string             `json:"mode"`
	Procs     int                `json:"procs"`
	Cells     int                `json:"cells"`
	Subframes int                `json:"subframes"`
	Load      float64            `json:"load"`
	ElapsedNs int64              `json:"elapsed_ns"`
	Epoch     int64              `json:"placement_epoch"`
	Stats     fleet.HarnessStats `json:"stats"`
	P99Ns     int64              `json:"p99_ns"`
	P999Ns    int64              `json:"p999_ns"`
}

// runFleet brings up a supervised fleet, drives the diurnal harness
// through it — optionally forcing a live migration and a worker crash
// mid-run — and gates on the exactly-once and shed-budget assertions.
func runFleet(w io.Writer, r fleetRun) error {
	var l fleet.Launcher
	srvCfg := fronthaul.Config{
		Workers:  r.Workers,
		Pools:    1,
		Receiver: r.TX.Receiver,
		Delta:    r.Delta,
		// The harness is transport-paced, not wall-clock paced: a long
		// deadline budget keeps shedding purely admission-driven (and so
		// deterministic for a fixed seed).
		DeadlineBudget: time.Minute,
		Capacity:       r.Capacity,
		KPISampling:    1,
		Seed:           r.Seed,
	}
	if r.EnbBin == "" {
		ipl := &fleet.InProcLauncher{Cfg: fleet.InProcConfig{
			Server: srvCfg, Cells: r.Cells, Metrics: true,
		}}
		defer ipl.Close()
		l = ipl
	} else {
		dir := r.Dir
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "lte-bench-fleet-"); err != nil {
				return err
			}
			defer os.RemoveAll(dir)
		}
		l = &fleet.ExecLauncher{
			Bin: r.EnbBin, Dir: dir, Cells: r.Cells, Metrics: true,
			ExtraArgs: []string{
				"-deadline", "1m",
				"-delta", r.Delta.String(),
				"-capacity", strconv.FormatFloat(r.Capacity, 'g', -1, 64),
				"-workers", strconv.Itoa(r.Workers),
				"-seed", strconv.FormatUint(r.Seed, 10),
			},
			Stderr: os.Stderr,
		}
	}

	co, err := fleet.New(fleet.Config{
		Workers:      r.Procs,
		Cells:        r.Cells,
		Launcher:     l,
		DrainTimeout: 5 * time.Second,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(w, "fleet: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer co.Close()

	// Fault injection runs on cell 0's send path, so the sequence points
	// are deterministic for a fixed configuration.
	var onSeq func(int64)
	if r.MigrateAt > 0 || r.CrashAt > 0 {
		migrated := false
		onSeq = func(seq int64) {
			if r.MigrateAt > 0 && seq == r.MigrateAt && !migrated {
				migrated = true
				cell := r.Cells / 2
				target := (co.Placement().Owner[cell] + 1) % r.Procs
				fmt.Fprintf(w, "fleet: migrating cell %d to worker %d at seq %d\n", cell, target, seq)
				if err := co.Migrate(cell, target); err != nil {
					fmt.Fprintf(w, "fleet: migrate: %v\n", err)
				}
			}
			if r.CrashAt > 0 && seq == r.CrashAt {
				fmt.Fprintf(w, "fleet: checkpoint round + killing worker 0 at seq %d\n", seq)
				if err := co.CheckpointRound(); err != nil {
					fmt.Fprintf(w, "fleet: checkpoint round: %v\n", err)
				}
				if wk, err := co.Worker(0); err == nil {
					wk.Kill()
				} else {
					fmt.Fprintf(w, "fleet: worker 0: %v\n", err)
				}
			}
		}
	}

	start := time.Now()
	stats, err := fleet.RunHarness(fleet.HarnessConfig{
		Coordinator:     co,
		SubframesPerDay: r.Day,
		GenConfig: fronthaul.GenConfig{
			Cells:     r.Cells,
			Subframes: r.Subframes,
			Load:      r.Load,
			Seed:      r.Seed,
			MaxPRB:    r.MaxPRB,
			DTXProb:   r.DTXProb,
			TX:        r.TX,
			OnSeq:     onSeq,
		},
	})
	elapsed := time.Since(start)
	if err != nil {
		return fmt.Errorf("fleet harness: %w (partial: %s)", err, stats)
	}

	fmt.Fprintf(w, "fleet: %d procs x %d cells x %d subframes in %v\n",
		r.Procs, r.Cells, r.Subframes, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "fleet: %s\n", stats)
	fmt.Fprintf(w, "fleet: %s\n", stats.Rollup())
	epoch := co.Placement().Epoch
	fmt.Fprintf(w, "fleet: placement epoch %d\n", epoch)

	if r.JSONOut != "" {
		sum := fleetSummary{
			Mode: "fleet", Procs: r.Procs, Cells: r.Cells, Subframes: r.Subframes,
			Load: r.Load, ElapsedNs: elapsed.Nanoseconds(), Epoch: epoch,
			Stats: stats, P99Ns: stats.P99.Nanoseconds(), P999Ns: stats.P999.Nanoseconds(),
		}
		if err := writeJSON(r.JSONOut, sum); err != nil {
			return err
		}
		fmt.Fprintf(w, "fleet: summary -> %s\n", r.JSONOut)
	}

	if r.AssertExactlyOnce {
		if stats.Lost != 0 {
			return fmt.Errorf("fleet: %d subframes lost", stats.Lost)
		}
		if stats.BadAcks != 0 {
			return fmt.Errorf("fleet: %d bad acks", stats.BadAcks)
		}
		if got := stats.Done + stats.ShedFrames() + stats.Duplicate; got != stats.Sent {
			return fmt.Errorf("fleet: terminal acks %d != sent %d", got, stats.Sent)
		}
		total := stats.Fleet.Total
		if got := total.CrcPass + total.CrcFail + total.Dtx + total.Skipped; got != stats.UsersSent {
			return fmt.Errorf("fleet: KPI rollup %d != users sent %d (pass=%d fail=%d dtx=%d skipped=%d)",
				got, stats.UsersSent, total.CrcPass, total.CrcFail, total.Dtx, total.Skipped)
		}
		fmt.Fprintf(w, "fleet: exactly-once OK (%d users, 0 lost)\n", stats.UsersSent)
	}
	if r.AssertShedWithin > 0 {
		// Relative budget with a small absolute floor, so a lightly-loaded
		// run (tiny predicted shed) does not fail on quantisation noise.
		diff := math.Abs(stats.MeasuredShed - stats.PredictedShed)
		tol := r.AssertShedWithin*stats.PredictedShed + 0.01
		if diff > tol {
			return fmt.Errorf("fleet: measured shed %.4f vs predicted %.4f (|diff| %.4f > tol %.4f)",
				stats.MeasuredShed, stats.PredictedShed, diff, tol)
		}
		fmt.Fprintf(w, "fleet: shed budget OK (measured %.4f, predicted %.4f)\n",
			stats.MeasuredShed, stats.PredictedShed)
	}
	return nil
}

// writeJSON atomically writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
