package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ltephy/internal/fronthaul"
)

// TestServeLoopback brings the daemon up on a Unix socket, drives it with
// the wire generator, stops it and checks the serving summary.
func TestServeLoopback(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "enb.sock")
	var buf bytes.Buffer
	var mu sync.Mutex
	output := func() string { mu.Lock(); defer mu.Unlock(); return buf.String() }
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", sock, "-network", "unix",
			"-cells", "2", "-workers", "2", "-deadline", "1m",
		}, w, stop)
	}()

	// Wait for the socket to come up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if conn, err := net.Dial("unix", sock); err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			t.Fatalf("server did not come up; output so far:\n%s", output())
		}
		time.Sleep(10 * time.Millisecond)
	}

	stats, err := fronthaul.Generate(fronthaul.GenConfig{
		Resolve: fronthaul.Addr("unix", sock), Cells: 2, Subframes: 10, Seed: 3, MaxPRB: 2,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if stats.Done != 20 || stats.BadAcks != 0 {
		t.Fatalf("loopback stats: %s", stats)
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	out := output()
	for _, want := range []string{
		"serving 2 cells", "cell 0: accepted=10", "cell 1: accepted=10", "corrupt_frames=0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(sock); err == nil {
		// The socket file may linger; a fresh run must still bind.
		stop2 := make(chan struct{})
		done2 := make(chan error, 1)
		go func() {
			done2 <- run([]string{"-listen", sock, "-network", "unix", "-cells", "1"}, w, stop2)
		}()
		waitUp := time.Now().Add(10 * time.Second)
		for {
			if conn, err := net.Dial("unix", sock); err == nil {
				conn.Close()
				break
			}
			if time.Now().After(waitUp) {
				close(stop2)
				t.Fatalf("rebind on stale socket failed:\n%s", output())
			}
			time.Sleep(10 * time.Millisecond)
		}
		close(stop2)
		if err := <-done2; err != nil {
			t.Fatalf("rebind run: %v", err)
		}
	}
}

// TestControlDrainClient exercises the fleet-facing surface of the
// daemon: ephemeral ports published through -ports-file, the control
// listener, and the -drain client mode draining one cell while the
// others keep serving.
func TestControlDrainClient(t *testing.T) {
	ports := filepath.Join(t.TempDir(), "enb.ports")
	var buf bytes.Buffer
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-control", "127.0.0.1:0",
			"-cells", "2", "-deadline", "1m", "-ports-file", ports,
		}, w, stop)
	}()

	var pf struct{ Data, Control, Metrics string }
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(ports); err == nil &&
			json.Unmarshal(b, &pf) == nil && pf.Data != "" && pf.Control != "" {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			t.Fatalf("-ports-file never appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Client mode: drain cell 1 on the running daemon.
	var cbuf bytes.Buffer
	if err := run([]string{"-drain", "1", "-connect", pf.Control}, &cbuf, stop); err != nil {
		t.Fatalf("drain client: %v", err)
	}
	if !strings.Contains(cbuf.String(), "cell 1 drained") {
		t.Fatalf("drain client output: %q", cbuf.String())
	}

	// The drained cell redirects; the live cell still serves.
	conn, err := net.Dial("tcp", pf.Data)
	if err != nil {
		t.Fatalf("dial data: %v", err)
	}
	defer conn.Close()
	sendFrame := func(cell uint16) fronthaul.Ack {
		frame, err := fronthaul.AppendFrame(nil, cell, 0, nil)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("write: %v", err)
		}
		var ack [fronthaul.AckLen]byte
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.ReadFull(conn, ack[:]); err != nil {
			t.Fatalf("read ack: %v", err)
		}
		a, err := fronthaul.ParseAck(&ack)
		if err != nil {
			t.Fatalf("ParseAck: %v", err)
		}
		return a
	}
	if a := sendFrame(1); a.Status != fronthaul.AckRedirect {
		t.Fatalf("drained cell ack: %+v, want redirect", a)
	}
	if a := sendFrame(0); a.Status != fronthaul.AckDone {
		t.Fatalf("live cell ack: %+v, want done", a)
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{"control on", "redirected=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	stop := make(chan struct{})
	close(stop)
	if err := run([]string{"-turbo", "quantum"}, &buf, stop); err == nil {
		t.Error("unknown turbo mode accepted")
	}
	if err := run([]string{"-listen", "/nonexistent-dir/enb.sock", "-network", "unix"}, &buf, stop); err == nil {
		t.Error("unbindable socket accepted")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
