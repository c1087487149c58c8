package fronthaul

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// stubServer answers every frame it reads with the ack answer returns,
// after the delay answer returns — a server whose dispositions and timing
// a test fixes. It returns the address to Resolve.
func stubServer(t *testing.T, answer func(Header) (status uint8, delay time.Duration)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				var hdr [FrameHeaderLen]byte
				for {
					if _, err := io.ReadFull(conn, hdr[:]); err != nil {
						return
					}
					h, err := ParseHeader(&hdr, MaxUsersPerFrame, DefaultMaxPayload)
					if err != nil {
						return
					}
					if _, err := io.CopyN(io.Discard, conn, int64(h.PayloadLen)+TrailerLen); err != nil {
						return
					}
					status, delay := answer(h)
					time.Sleep(delay)
					var ack [AckLen]byte
					PutAck(&ack, Ack{Cell: h.Cell, Status: status, UsersAccepted: h.NUsers, Seq: h.Seq})
					if _, err := conn.Write(ack[:]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestGenBooksLateShedsApart: a late shed is its own disposition, not an
// overload shed.
func TestGenBooksLateShedsApart(t *testing.T) {
	addr := stubServer(t, func(Header) (uint8, time.Duration) { return AckShedLate, 0 })
	stats, err := Generate(GenConfig{Resolve: Addr("tcp", addr), Subframes: 1, Seed: 1, MaxPRB: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if stats.ShedLate != 1 || stats.ShedOverload != 0 || stats.Acked != 1 || stats.Lost != 0 {
		t.Fatalf("want ShedLate=1 ShedOverload=0: %s", stats)
	}
}

// TestGenStampsAcksOnArrival: latency runs from send to the ack's arrival,
// not to the moment the sender, busy pacing its next frame, gets round to
// it. Acks come 8 ms after each frame, frames every 20 ms.
func TestGenStampsAcksOnArrival(t *testing.T) {
	const delay = 8 * time.Millisecond
	addr := stubServer(t, func(Header) (uint8, time.Duration) { return AckDone, delay })
	stats, err := Generate(GenConfig{
		Resolve:   Addr("tcp", addr),
		Subframes: 15,
		Interval:  20 * time.Millisecond,
		Seed:      1,
		MaxPRB:    2,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if stats.Done != 15 {
		t.Fatalf("not every frame completed: %s", stats)
	}
	t.Logf("p50 %v p99 %v against a %v server", stats.P50, stats.P99, delay)
	if d := stats.P50 - delay; d < -2*time.Millisecond || d > 2*time.Millisecond {
		t.Fatalf("p50 %v, want within 2ms of the server's %v", stats.P50, delay)
	}
}
