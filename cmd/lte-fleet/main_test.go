package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ltephy/internal/fleet"
	"ltephy/internal/fronthaul"
)

// readPorts decodes a worker's -ports-file handshake JSON.
func readPorts(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// buildEnb compiles the lte-enb binary into a temp dir so the fleet
// daemon has a real child to spawn.
func buildEnb(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lte-enb")
	cmd := exec.Command("go", "build", "-o", bin, "ltephy/cmd/lte-enb")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build lte-enb: %v\n%s", err, out)
	}
	return bin
}

// TestFleetDaemonExec spawns real lte-enb processes under the daemon,
// drives traffic through the process fleet with the wire generator,
// and checks the daemon's status report and clean shutdown.
func TestFleetDaemonExec(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	bin := buildEnb(t)

	var buf bytes.Buffer
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	output := func() string { mu.Lock(); defer mu.Unlock(); return buf.String() }

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-workers", "2", "-cells", "4", "-enb-bin", bin,
			"-dir", t.TempDir(), "-status-every", "0", "-checkpoint-every", "0",
			"--", "-deadline", "1m",
		}, w, stop)
	}()

	// The daemon reports the placement once every worker is up.
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(output(), "worker 1 serves cells") {
		if time.Now().After(deadline) {
			close(stop)
			t.Fatalf("fleet never came up; output:\n%s", output())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Scrape a worker's data address out of the placement and drive it.
	// The daemon does not print addresses, so go through the ports files.
	m := regexp.MustCompile(`dir (\S+)`).FindStringSubmatch(output())
	if m == nil {
		t.Fatalf("no scratch dir in output:\n%s", output())
	}
	var pf struct{ Data string }
	if err := readPorts(filepath.Join(m[1], "worker0.ports"), &pf); err != nil {
		t.Fatalf("read ports: %v", err)
	}
	stats, err := fronthaul.Generate(fronthaul.GenConfig{
		Resolve: fronthaul.Addr("tcp", pf.Data), Cells: 2, Subframes: 10, Seed: 3, MaxPRB: 2,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if stats.Done != 20 || stats.BadAcks != 0 {
		t.Fatalf("loopback through the process fleet: %s", stats)
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	out := output()
	for _, want := range []string{
		"serving 4 cells on 2 workers", "shutting down", "cell 0: accepted=10",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestFleetDaemonInProcLifecycle covers the coordinator paths the exec
// test cannot reach cheaply: a migration via the public API while the
// daemon-style status printer runs against it.
func TestFleetDaemonInProcLifecycle(t *testing.T) {
	l := &fleet.InProcLauncher{Cfg: fleet.InProcConfig{
		Server: fronthaul.Config{
			Workers:        1,
			DeadlineBudget: time.Minute,
			Predictor:      fronthaul.FlatPredictor{PerPRB: 1e-3},
			KPISampling:    1,
		},
		Cells: 4,
	}}
	defer l.Close()
	co, err := fleet.New(fleet.Config{Workers: 2, Cells: 4, Launcher: l, Logf: t.Logf})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	defer co.Close()

	if err := co.Migrate(0, 1); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	var buf bytes.Buffer
	printStatus(&buf, co)
	out := buf.String()
	if !strings.Contains(out, "worker 1 serves cells [0 1 3]") {
		t.Fatalf("status after migration:\n%s", out)
	}
	if !strings.Contains(out, "cell 0: accepted=0") {
		t.Fatalf("status missing per-cell stats:\n%s", out)
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	stop := make(chan struct{})
	close(stop)
	if err := run([]string{"-workers", "0"}, &buf, stop); err == nil {
		t.Error("zero workers accepted")
	}
	if err := run([]string{"-enb-bin", "/nonexistent/lte-enb", "-dir", t.TempDir()}, &buf, stop); err == nil {
		t.Error("nonexistent binary accepted")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
