package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ltephy/internal/fronthaul"
	"ltephy/internal/obs/kpi"
	"ltephy/internal/params"
)

// HarnessConfig configures the fleet load harness: the fronthaul wire
// generator routed by the coordinator's placement, with a diurnal
// offered-load ramp. A worker crash or live migration triggers
// re-resolution and replay, and the servers' duplicate detection makes the
// replay idempotent — no subframe lost, none double-counted.
type HarnessConfig struct {
	fronthaul.GenConfig
	// Coordinator resolves cell placement and the stable horizon the
	// generator retains frames beyond; its Resolve and StableSeq replace
	// the generator's seams, and the diurnal model replaces its Model.
	Coordinator *Coordinator
	// SubframesPerDay compresses the diurnal day curve (default: the run
	// length, at least 24, so one run spans one day).
	SubframesPerDay int
}

// HarnessStats is the fleet-wide result of a harness run: the generator's
// view plus the fleet rollups.
type HarnessStats struct {
	fronthaul.GenStats
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

// Rollup renders the fleet rollups in the key=value form the fleet-smoke
// job reads beside the generator's String.
func (h HarnessStats) Rollup() string {
	t := h.Fleet.Total
	return fmt.Sprintf("kpi_total=%d predicted_shed=%.4f measured_shed=%.4f",
		t.CrcPass+t.CrcFail+t.Dtx+t.Skipped, h.PredictedShed, h.MeasuredShed)
}

// RunHarness drives the fleet with the wire generator and returns its
// stats with the fleet rollups. The first error is returned with the
// partial stats intact.
func RunHarness(cfg HarnessConfig) (HarnessStats, error) {
	co := cfg.Coordinator
	if co == nil {
		return HarnessStats{}, errors.New("fleet: harness needs a Coordinator")
	}
	day := cfg.SubframesPerDay
	if day <= 0 {
		day = max(cfg.Subframes, 24)
	}
	gen := cfg.GenConfig
	gen.Resolve = func(cell int) (string, string, error) {
		network, addr, _, err := co.Resolve(cell)
		return network, addr, err
	}
	gen.Stable = co.StableSeq
	gen.Model = func(seed uint64) (params.Model, error) {
		return params.NewDiurnal(seed, day, 0.05, 0.6)
	}
	var total HarnessStats
	var firstErr error
	total.GenStats, firstErr = fronthaul.Generate(gen)

	// Fleet rollups: scrape every worker's /fetch and fold, then derive
	// the predicted vs measured shed fractions from the serving stats.
	if fleet, err := scrapeFleetKPI(co); err == nil {
		total.Fleet = fleet
	} else if firstErr == nil {
		firstErr = err
	}
	if stats, err := co.Stats(); err == nil {
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
