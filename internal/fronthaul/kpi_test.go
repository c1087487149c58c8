package fronthaul

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// kpiUserTotals sums the per-user FETCH counters of one cell snapshot.
func kpiUserTotals(t *testing.T, srv *Server, cell int) (pass, fail, dtx, skipped int64) {
	t.Helper()
	for _, u := range srv.KPI().CellSnapshot(cell).Users {
		pass += u.Cumulative.CrcPass
		fail += u.Cumulative.CrcFail
		dtx += u.Cumulative.Dtx
		skipped += u.Cumulative.Skipped
	}
	return
}

// TestKPILoopbackNominalWithDTX runs a nominal-load loopback with DTX
// users mixed in and checks the KPI registry's view against the
// generator's ground truth: every accepted user decodes (CrcPass), every
// DTX-flagged user lands in Dtx, nothing is skipped, and the per-user
// sums equal the cell totals.
func TestKPILoopbackNominalWithDTX(t *testing.T) {
	const subframes = 40
	srv, addr := startServer(t, Config{
		Cells:          1,
		Workers:        2,
		Delta:          time.Millisecond,
		DeadlineBudget: time.Minute,
		Predictor:      FlatPredictor{PerPRB: 1e-3},
		Capacity:       1,
		KPISampling:    1,
		KPIWindows:     []int64{8},
		Seed:           7,
	})
	stats, err := Generate(GenConfig{
		Resolve:   Addr("tcp", addr),
		Cells:     1,
		Subframes: subframes,
		Load:      1,
		Seed:      7,
		MaxPRB:    2,
		DTXProb:   0.3,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if stats.UsersDTX == 0 {
		t.Fatal("generator flagged no DTX users; DTXProb not exercised")
	}
	// DTX users are compacted out before admission, so accepted + DTX
	// must cover everything sent at nominal load.
	if stats.UsersAccepted+stats.UsersDTX != stats.UsersSent {
		t.Fatalf("accepted %d + dtx %d != sent %d", stats.UsersAccepted, stats.UsersDTX, stats.UsersSent)
	}
	c := srv.KPI().CellSnapshot(0)
	cum := c.Cumulative
	if cum.Dtx != stats.UsersDTX {
		t.Errorf("KPI Dtx = %d, generator sent %d", cum.Dtx, stats.UsersDTX)
	}
	if cum.CrcPass+cum.CrcFail != stats.UsersAccepted {
		t.Errorf("KPI pass+fail = %d, accepted %d", cum.CrcPass+cum.CrcFail, stats.UsersAccepted)
	}
	if cum.Skipped != 0 {
		t.Errorf("KPI Skipped = %d at nominal load, want 0", cum.Skipped)
	}
	if cum.CrcFail != 0 {
		t.Errorf("KPI CrcFail = %d over a clean loopback, want 0", cum.CrcFail)
	}
	if cum.Throughput <= 0 {
		t.Errorf("KPI Throughput = %g, want > 0", cum.Throughput)
	}
	if c.Subframes != subframes {
		t.Errorf("KPI Subframes span = %d, want %d", c.Subframes, subframes)
	}
	pass, fail, dtx, skipped := kpiUserTotals(t, srv, 0)
	if pass != cum.CrcPass || fail != cum.CrcFail || dtx != cum.Dtx || skipped != cum.Skipped {
		t.Errorf("per-user sums %d/%d/%d/%d != cell totals %d/%d/%d/%d",
			pass, fail, dtx, skipped, cum.CrcPass, cum.CrcFail, cum.Dtx, cum.Skipped)
	}
	// 40 subframes crossed the 8-subframe window at least once.
	if w := c.Windows[0]; w.Epoch < 0 || w.CrcPass == 0 {
		t.Errorf("windowed view never completed: %+v", w)
	}
}

// TestKPISkippedReconcilesWithRejected drives overload and checks the
// "one number, two views" invariant: the per-user Skipped counters sum to
// exactly the cell-level UsersRejected counter (whole-frame sheds plus
// per-user admission rejections).
func TestKPISkippedReconcilesWithRejected(t *testing.T) {
	srv, addr := startServer(t, Config{
		Cells:          1,
		Workers:        2,
		Delta:          time.Millisecond,
		DeadlineBudget: time.Minute,
		Predictor:      FlatPredictor{PerPRB: 0.05},
		Capacity:       0.25,
		Burst:          0.5,
		KPISampling:    1,
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
	st := srv.CellStats(0)
	if st.UsersRejected == 0 {
		t.Fatal("overload rejected no users; test is vacuous")
	}
	cum := srv.KPI().CellSnapshot(0).Cumulative
	if cum.Skipped != st.UsersRejected {
		t.Errorf("KPI Skipped = %d, cell UsersRejected = %d", cum.Skipped, st.UsersRejected)
	}
	_, _, _, skipped := kpiUserTotals(t, srv, 0)
	if skipped != st.UsersRejected {
		t.Errorf("per-user Skipped sum = %d, cell UsersRejected = %d", skipped, st.UsersRejected)
	}
	if cum.CrcPass+cum.CrcFail != st.UsersAccepted {
		t.Errorf("KPI pass+fail = %d, UsersAccepted = %d", cum.CrcPass+cum.CrcFail, st.UsersAccepted)
	}
	if stats.UsersSent != st.UsersAccepted+st.UsersRejected {
		t.Errorf("sent %d != accepted %d + rejected %d", stats.UsersSent, st.UsersAccepted, st.UsersRejected)
	}
}

// TestKPIEndpointAndPrometheus checks the served surface: /fetch returns
// the EBLer-style structs and /metrics carries the ltephy_kpi_* series.
func TestKPIEndpointAndPrometheus(t *testing.T) {
	srv, addr := startServer(t, Config{
		Cells:          1,
		Workers:        2,
		Delta:          time.Millisecond,
		DeadlineBudget: time.Minute,
		Predictor:      FlatPredictor{PerPRB: 1e-3},
		Capacity:       1,
		KPISampling:    1,
		Seed:           3,
	})
	if _, err := Generate(GenConfig{
		Resolve: Addr("tcp", addr), Cells: 1, Subframes: 10, Load: 1, Seed: 3, MaxPRB: 2,
	}); err != nil {
		t.Fatalf("Generate: %v", err)
	}
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/fetch", nil))
	body := rec.Body.String()
	for _, want := range []string{`"reliability"`, `"bler"`, `"throughput"`, `"crc_pass"`, `"crc_fail"`, `"dtx"`, `"skipped"`, `"users"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/fetch missing %s:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	metrics := rec.Body.String()
	for _, want := range []string{"ltephy_kpi_blocks_total", "ltephy_kpi_bler_percent", "ltephy_kpi_throughput_kbps"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
