package main

import (
	"fmt"
	"io"
	"net"
	"time"
)

// The machine-speed probe. This box shares its physical cores with other
// guests: for a minute or two at a time every round of every workload runs
// 1.2–1.5x slower, then fast again (README, "Noise"). No statistic over the
// rounds of one 18 s run can remove a state that outlasts the run, so the
// benchmark measures the state and reports its timings as they would read in
// the reference state.
//
// The probe is a fixed piece of the benchmark's own code: probeTrips 64-byte
// round trips over a loopback TCP connection to a goroutine that echoes
// them. System calls, the network stack, the poller and the scheduler are
// what this program's processes spend their time in, and the probe moves
// with the machine state as the workloads do (a dependent-multiply loop does
// not move at all, a pointer chase by a few per cent).
const (
	probeTrips = 1000
	// probeRef is what the probe reads on this box when nothing disturbs it.
	// It only fixes the scale of the reported timings.
	probeRef = 8500 * time.Microsecond
)

type speedProbe struct {
	conn net.Conn
	buf  [64]byte
}

// newSpeedProbe connects to an echo goroutine of its own; the goroutine ends
// when close closes the connection.
func newSpeedProbe() (*speedProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	echo, err := ln.Accept()
	if err != nil {
		conn.Close()
		return nil, err
	}
	go func() {
		defer echo.Close()
		var buf [64]byte
		for {
			n, err := echo.Read(buf[:])
			if err != nil {
				return // the peer closed
			}
			if _, err := echo.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	return &speedProbe{conn: conn}, nil
}

func (p *speedProbe) close() { p.conn.Close() }

// read times one probe.
func (p *speedProbe) read() (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < probeTrips; i++ {
		if _, err := p.conn.Write(p.buf[:]); err != nil {
			return 0, fmt.Errorf("benchmark: speed probe: %w", err)
		}
		if _, err := io.ReadFull(p.conn, p.buf[:]); err != nil {
			return 0, fmt.Errorf("benchmark: speed probe: %w", err)
		}
	}
	return time.Since(t0), nil
}

// slowdown is how much slower than the reference state the machine ran
// between two probe readings taken before and after a piece of work.
func slowdown(before, after time.Duration) float64 {
	return float64(before+after) / float64(2*probeRef)
}
