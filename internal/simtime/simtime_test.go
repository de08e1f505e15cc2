package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	if c.Measured() != 0 || c.Modelled() != 0 {
		t.Fatalf("new clock measured=%v modelled=%v, want 0/0", c.Measured(), c.Modelled())
	}
}

func TestAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(100)
	c.Advance(250)
	if got := c.Now(); got != 350 {
		t.Fatalf("Now() = %v, want 350", got)
	}
	if got := c.Modelled(); got != 350 {
		t.Fatalf("Modelled() = %v, want 350", got)
	}
	if got := c.Measured(); got != 0 {
		t.Fatalf("Measured() = %v, want 0", got)
	}
}

func TestAdvanceIgnoresNegative(t *testing.T) {
	c := NewClock()
	c.Advance(100)
	c.Advance(-50)
	if got := c.Now(); got != 100 {
		t.Fatalf("Now() = %v after negative advance, want 100", got)
	}
}

func TestAdvanceTo(t *testing.T) {
	c := NewClock()
	c.Advance(100)
	c.AdvanceTo(80) // in the past: no-op
	if c.Now() != 100 {
		t.Fatalf("AdvanceTo past moved clock to %v", c.Now())
	}
	c.AdvanceTo(500)
	if c.Now() != 500 {
		t.Fatalf("AdvanceTo(500) left clock at %v", c.Now())
	}
}

func TestChargeMeasuresRealTime(t *testing.T) {
	c := NewClock()
	d := c.Charge(func() { time.Sleep(2 * time.Millisecond) })
	if d < FromReal(1*time.Millisecond) {
		t.Fatalf("Charge measured %v for a 2ms sleep", d)
	}
	if c.Now() != d {
		t.Fatalf("Now() = %v, want %v", c.Now(), d)
	}
	if c.Measured() != d {
		t.Fatalf("Measured() = %v, want %v", c.Measured(), d)
	}
}

func TestReset(t *testing.T) {
	c := NewClock()
	c.Advance(10)
	c.Busy(FromReal(time.Nanosecond))
	c.Reset()
	if c.Now() != 0 || c.Measured() != 0 {
		t.Fatalf("Reset left now=%v measured=%v", c.Now(), c.Measured())
	}
}

func TestSplitInvariant(t *testing.T) {
	// Measured + Modelled == Now must hold for any interleaving.
	f := func(steps []int16) bool {
		c := NewClock()
		for i, s := range steps {
			d := Duration(s)
			if i%2 == 0 {
				c.Advance(d)
			} else if d >= 0 {
				c.Busy(FromReal(time.Duration(d)))
			}
		}
		return c.Measured()+c.Modelled() == c.Now() && c.Measured() >= 0 && c.Modelled() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationConversions(t *testing.T) {
	if (2 * Second).Seconds() != 2 {
		t.Fatalf("Seconds() = %v, want 2", (2 * Second).Seconds())
	}
	if FromReal(time.Millisecond) != Millisecond {
		t.Fatalf("FromReal(1ms) = %v", FromReal(time.Millisecond))
	}
	if Millisecond.Real() != time.Millisecond {
		t.Fatalf("Real(1ms) = %v", Millisecond.Real())
	}
	if (90 * Nanosecond).String() != "90ns" {
		t.Fatalf("String() = %q", (90 * Nanosecond).String())
	}
}
