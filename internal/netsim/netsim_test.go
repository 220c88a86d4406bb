package netsim

import (
	"errors"
	"testing"
	"time"
)

func TestClock(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Error("clock must start at 0")
	}
	c.advance(5 * time.Millisecond)
	c.advance(7 * time.Millisecond)
	if c.Now() != 12*time.Millisecond {
		t.Errorf("Now = %v", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative advance must panic")
		}
	}()
	c.advance(-time.Second)
}

func TestCostModel(t *testing.T) {
	m := CostModel{RTT: 50 * time.Millisecond, PerRecord: 10 * time.Millisecond, PerByte: time.Microsecond}
	got := m.cost(4, 1000)
	want := 50*time.Millisecond + 40*time.Millisecond + 1000*time.Microsecond
	if got != want {
		t.Errorf("Cost = %v, want %v", got, want)
	}
	if (CostModel{}).cost(100, 100) != 0 {
		t.Error("zero model must cost nothing")
	}
}

func TestConnChargesClock(t *testing.T) {
	clock := NewClock()
	conn := NewConn("prov", clock, CostModel{RTT: 100 * time.Millisecond, PerRecord: 10 * time.Millisecond})
	if err := conn.call(4, 0); err != nil {
		t.Fatal(err)
	}
	if clock.Now() != 140*time.Millisecond {
		t.Errorf("clock = %v", clock.Now())
	}
	conn.call(0, 0)
	st := conn.Stats()
	if st.Calls != 2 || st.Records != 4 || st.Busy != 240*time.Millisecond {
		t.Errorf("stats = %+v", st)
	}
	if conn.Name() != "prov" {
		t.Error("accessors wrong")
	}
}

func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() (faults int64, calls int64) {
		clock := NewClock()
		conn := NewConn("x", clock, CostModel{RTT: time.Millisecond})
		conn.InjectFaults(0.3, 42)
		for i := 0; i < 1000; i++ {
			err := conn.call(1, 0)
			if err != nil && !errors.Is(err, ErrNetwork) {
				t.Fatalf("wrong error: %v", err)
			}
		}
		st := conn.Stats()
		return st.Faults, st.Calls
	}
	f1, c1 := run()
	f2, c2 := run()
	if f1 != f2 || c1 != c2 {
		t.Errorf("fault injection not deterministic: %d/%d vs %d/%d", f1, c1, f2, c2)
	}
	if f1 < 200 || f1 > 400 {
		t.Errorf("fault rate off: %d of 1000", f1)
	}
	// Latency is still paid on faults (the client waited for a timeout).
	clock := NewClock()
	conn := NewConn("y", clock, CostModel{RTT: time.Millisecond})
	conn.InjectFaults(1.0, 1)
	conn.call(1, 0)
	if clock.Now() == 0 {
		t.Error("fault must still cost time")
	}
	// Disabling works.
	conn.InjectFaults(0, 0)
	if err := conn.call(1, 0); err != nil {
		t.Errorf("after disable: %v", err)
	}
}

func TestMeter(t *testing.T) {
	clock := NewClock()
	m := NewMeter(clock)
	err := m.Measure("add", func() error {
		clock.advance(10 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Measure("add", func() error {
		clock.advance(30 * time.Millisecond)
		return nil
	})
	b := m.Bucket("add")
	if b.Count != 2 || b.Total != 40*time.Millisecond || b.Avg() != 20*time.Millisecond {
		t.Errorf("bucket = %+v avg %v", b, b.Avg())
	}
	if (Bucket{}).Avg() != 0 {
		t.Error("empty bucket avg must be 0")
	}
	// Errors pass through and still get measured.
	sentinel := errors.New("boom")
	if err := m.Measure("fail", func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Error("error must propagate")
	}
	if m.Bucket("fail").Count != 1 {
		t.Error("failed op must be counted")
	}
	if m.Bucket("gone").Count != 0 {
		t.Error("unknown bucket must be zero")
	}
}
