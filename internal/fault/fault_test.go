package fault

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/mpi"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

func pattern(off int) byte { return byte((off*7 + 13) ^ (off >> 3)) }

// withInjector runs a world of the given size; rank 0's window (every
// other rank's region holds pattern bytes) is wrapped with sc and seed,
// a lock-all epoch is opened, and fn runs on rank 0.
func withInjector(t *testing.T, size int, sc Scenario, seed int64, fn func(w *Window, r *mpi.Rank) error) {
	t.Helper()
	err := mpi.Run(size, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, 4096)
		if r.ID() != 0 {
			for i := range region {
				region[i] = pattern(i)
			}
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		var fnErr error
		if r.ID() == 0 {
			w := Wrap(win, sc, seed)
			fnErr = w.LockAll()
			if fnErr == nil {
				fnErr = fn(w, r)
				if err := w.UnlockAll(); fnErr == nil {
					fnErr = err
				}
			}
		}
		r.Barrier()
		return fnErr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mixedGets issues n gets across every remote target and returns the
// injector's counts.
func mixedGets(w *Window, worldSize, n int) Counts {
	dst := make([]byte, 64)
	for i := 0; i < n; i++ {
		target := 1 + i%(worldSize-1)
		w.Get(dst, datatype.Byte, len(dst), target, (i*64)%2048)
	}
	return w.Counts()
}

func TestSameSeedInjectsIdenticalSequence(t *testing.T) {
	sc := Scenario{Name: "mix", DropRate: 0.2, TimeoutRate: 0.1, CorruptRate: 0.1, ShortReadRate: 0.1, SpikeRate: 0.1}
	var first Counts
	withInjector(t, 3, sc, 42, func(w *Window, r *mpi.Rank) error {
		first = mixedGets(w, 3, 200)
		return nil
	})
	if first.Total() == 0 {
		t.Fatal("scenario injected nothing")
	}
	var second Counts
	withInjector(t, 3, sc, 42, func(w *Window, r *mpi.Rank) error {
		second = mixedGets(w, 3, 200)
		return nil
	})
	if first != second {
		t.Errorf("same (scenario, seed) diverged:\n  run 1: %v digest=%#x\n  run 2: %v digest=%#x",
			first, first.Digest, second, second.Digest)
	}
	var other Counts
	withInjector(t, 3, sc, 43, func(w *Window, r *mpi.Rank) error {
		other = mixedGets(w, 3, 200)
		return nil
	})
	if other.Digest == first.Digest {
		t.Error("different seeds produced the same fault digest")
	}
}

func TestDropFailsWithoutIssuing(t *testing.T) {
	withInjector(t, 2, Scenario{DropRate: 1}, 1, func(w *Window, r *mpi.Rank) error {
		dst := []byte{0xEE, 0xEE, 0xEE, 0xEE}
		err := w.Get(dst, datatype.Byte, len(dst), 1, 0)
		if !errors.Is(err, rma.ErrTransient) {
			t.Errorf("dropped get = %v, want ErrTransient", err)
		}
		for _, b := range dst {
			if b != 0xEE {
				t.Fatal("dropped get wrote into the destination buffer")
			}
		}
		if c := w.Counts(); c.Drops != 1 || c.Ops != 1 {
			t.Errorf("counts = %v, want 1 drop in 1 op", c)
		}
		return nil
	})
}

func TestTimeoutBurnsVirtualTime(t *testing.T) {
	sc := Scenario{TimeoutRate: 1, Timeout: 7 * simtime.Microsecond}
	withInjector(t, 2, sc, 1, func(w *Window, r *mpi.Rank) error {
		dst := make([]byte, 64)
		t0 := r.Clock().Now()
		err := w.Get(dst, datatype.Byte, len(dst), 1, 0)
		if !errors.Is(err, rma.ErrTimeout) || !errors.Is(err, rma.ErrTransient) {
			t.Errorf("timed-out get = %v, want ErrTimeout (transient)", err)
		}
		if spent := r.Clock().Now() - t0; spent < sc.Timeout {
			t.Errorf("timeout burned %v of virtual time, want >= %v", spent, sc.Timeout)
		}
		return nil
	})
}

func TestSpikeDeliversAfterExtraLatency(t *testing.T) {
	sc := Scenario{SpikeRate: 1, SpikeLatency: 9 * simtime.Microsecond}
	withInjector(t, 2, sc, 1, func(w *Window, r *mpi.Rank) error {
		dst := make([]byte, 64)
		t0 := r.Clock().Now()
		if err := w.Get(dst, datatype.Byte, len(dst), 1, 128); err != nil {
			return err
		}
		if spent := r.Clock().Now() - t0; spent < sc.SpikeLatency {
			t.Errorf("spiked get took %v, want >= the %v spike", spent, sc.SpikeLatency)
		}
		for i, b := range dst {
			if b != pattern(128+i) {
				t.Fatalf("spiked get byte %d = %#x, want clean payload", i, b)
			}
		}
		return nil
	})
}

func TestCorruptIsSilentAndAttestable(t *testing.T) {
	withInjector(t, 2, Scenario{CorruptRate: 1}, 1, func(w *Window, r *mpi.Rank) error {
		dst := make([]byte, 64)
		if err := w.Get(dst, datatype.Byte, len(dst), 1, 256); err != nil {
			t.Fatalf("corrupted get = %v, want nil (silent corruption)", err)
		}
		damaged := 0
		for i, b := range dst {
			if b != pattern(256+i) {
				damaged++
			}
		}
		if damaged == 0 || damaged > 3 {
			t.Errorf("corruption flipped %d bytes, want 1..3", damaged)
		}
		// The attestation channel stays clean, so verification catches it.
		want, err := w.Checksum(1, 256, len(dst))
		if err != nil {
			return err
		}
		if rma.ChecksumBytes(dst) == want {
			t.Error("corrupted payload still matches the target attestation")
		}
		return nil
	})
}

func TestShortReadGarblesTail(t *testing.T) {
	withInjector(t, 2, Scenario{ShortReadRate: 1}, 1, func(w *Window, r *mpi.Rank) error {
		dst := make([]byte, 64)
		err := w.Get(dst, datatype.Byte, len(dst), 1, 512)
		if !errors.Is(err, ErrShortRead) || !errors.Is(err, rma.ErrTransient) {
			t.Errorf("short read = %v, want ErrShortRead (transient)", err)
		}
		for i := 0; i < len(dst)/2; i++ {
			if dst[i] != pattern(512+i) {
				t.Fatalf("short read damaged delivered prefix byte %d", i)
			}
		}
		for i := len(dst) / 2; i < len(dst); i++ {
			if dst[i] == pattern(512+i) {
				t.Fatalf("short read left tail byte %d intact", i)
			}
		}
		return nil
	})
}

func TestOutageByOpCount(t *testing.T) {
	sc := Scenario{Outages: []Outage{{Target: -1, FromOp: 1, ToOp: 3}}}
	withInjector(t, 2, sc, 1, func(w *Window, r *mpi.Rank) error {
		dst := make([]byte, 64)
		for op := 1; op <= 3; op++ {
			err := w.Get(dst, datatype.Byte, len(dst), 1, 0)
			if op < 3 && !errors.Is(err, rma.ErrTransient) {
				t.Errorf("op %d during outage = %v, want transient", op, err)
			}
			if op == 3 && err != nil {
				t.Errorf("op %d after outage = %v, want nil", op, err)
			}
		}
		if c := w.Counts(); c.Outages != 2 {
			t.Errorf("Outages = %d, want 2", c.Outages)
		}
		return nil
	})
}

func TestOutageByVirtualTime(t *testing.T) {
	// World setup burns some virtual time on collectives, so the window
	// sits far past it.
	sc := Scenario{Outages: []Outage{{Target: 1, From: simtime.Millisecond, To: 2 * simtime.Millisecond}}}
	withInjector(t, 3, sc, 1, func(w *Window, r *mpi.Rank) error {
		dst := make([]byte, 64)
		if now := r.Clock().Now(); now >= simtime.Millisecond {
			t.Fatalf("setup already consumed %v, outage window unusable", now)
		}
		if err := w.Get(dst, datatype.Byte, len(dst), 1, 0); err != nil {
			t.Errorf("get before the outage window = %v", err)
		}
		r.Clock().AdvanceTo(1500 * simtime.Microsecond)
		if err := w.Get(dst, datatype.Byte, len(dst), 1, 0); !errors.Is(err, rma.ErrTransient) {
			t.Errorf("get inside the outage window = %v, want transient", err)
		}
		// Only the scripted target is down.
		if err := w.Get(dst, datatype.Byte, len(dst), 2, 0); err != nil {
			t.Errorf("get towards a healthy target = %v", err)
		}
		r.Clock().AdvanceTo(2500 * simtime.Microsecond)
		if err := w.Get(dst, datatype.Byte, len(dst), 1, 0); err != nil {
			t.Errorf("get after the outage window = %v", err)
		}
		return nil
	})
}

func TestTriggersSuppressEarlyInjection(t *testing.T) {
	sc := Scenario{DropRate: 1, AfterOps: 2}
	withInjector(t, 2, sc, 1, func(w *Window, r *mpi.Rank) error {
		dst := make([]byte, 64)
		for op := 1; op <= 2; op++ {
			if err := w.Get(dst, datatype.Byte, len(dst), 1, 0); err != nil {
				t.Errorf("op %d within AfterOps grace = %v", op, err)
			}
		}
		if err := w.Get(dst, datatype.Byte, len(dst), 1, 0); !errors.Is(err, rma.ErrTransient) {
			t.Errorf("op 3 past AfterOps = %v, want transient", err)
		}
		return nil
	})
}

func TestTargetFilterRestrictsInjection(t *testing.T) {
	sc := Scenario{DropRate: 1, Targets: []int{2}}
	withInjector(t, 3, sc, 1, func(w *Window, r *mpi.Rank) error {
		dst := make([]byte, 64)
		if err := w.Get(dst, datatype.Byte, len(dst), 1, 0); err != nil {
			t.Errorf("get towards unselected target = %v", err)
		}
		if err := w.Get(dst, datatype.Byte, len(dst), 2, 0); !errors.Is(err, rma.ErrTransient) {
			t.Errorf("get towards selected target = %v, want transient", err)
		}
		return nil
	})
}

func TestZeroSizeBypassesInjection(t *testing.T) {
	withInjector(t, 2, Scenario{DropRate: 1}, 1, func(w *Window, r *mpi.Rank) error {
		if err := w.Get(nil, datatype.Byte, 0, 1, 0); err != nil {
			t.Errorf("zero-size get = %v", err)
		}
		if c := w.Counts(); c.Ops != 0 {
			t.Errorf("zero-size get consumed an injection decision (ops=%d)", c.Ops)
		}
		return nil
	})
}

func TestGetBatchReportsFailingOp(t *testing.T) {
	// Ops are numbered from 1; op 3 (batch index 2) hits the outage.
	sc := Scenario{Outages: []Outage{{Target: -1, FromOp: 3, ToOp: 4}}}
	withInjector(t, 2, sc, 1, func(w *Window, r *mpi.Rank) error {
		bufs := make([][]byte, 5)
		ops := make([]rma.GetOp, 5)
		for i := range ops {
			bufs[i] = make([]byte, 32)
			ops[i] = rma.GetOp{Dst: bufs[i], Target: 1, Disp: i * 32}
		}
		err := w.GetBatch(ops)
		var be *rma.BatchError
		if !errors.As(err, &be) || be.Op != 2 {
			t.Fatalf("GetBatch = %v, want *rma.BatchError at op 2", err)
		}
		if !errors.Is(err, rma.ErrTransient) {
			t.Error("batch failure does not match ErrTransient through the wrap")
		}
		for i := 0; i < 2; i++ {
			for j, b := range bufs[i] {
				if b != pattern(i*32+j) {
					t.Fatalf("delivered prefix op %d byte %d damaged", i, j)
				}
			}
		}
		for i := 3; i < 5; i++ {
			for _, b := range bufs[i] {
				if b != 0 {
					t.Fatalf("op %d after the failure was issued", i)
				}
			}
		}
		return nil
	})
}

func TestScenarioValidate(t *testing.T) {
	bad := Scenario{DropRate: 0.6, TimeoutRate: 0.6}
	if err := bad.Validate(); err == nil {
		t.Error("rates summing past 1 passed Validate")
	}
	neg := Scenario{CorruptRate: -0.1}
	if err := neg.Validate(); err == nil {
		t.Error("negative rate passed Validate")
	}
	for _, sc := range Canned() {
		if err := sc.Validate(); err != nil {
			t.Errorf("canned scenario %q invalid: %v", sc.Name, err)
		}
		if got, ok := ByName(sc.Name); !ok || got.Name != sc.Name {
			t.Errorf("ByName(%q) lookup failed", sc.Name)
		}
	}
	if _, ok := ByName("no-such-scenario"); ok {
		t.Error("ByName invented a scenario")
	}
}

func TestLoadScenarioRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	payload := `{
		"name": "custom",
		"drop_rate": 0.25,
		"timeout_ns": 15000,
		"outages": [{"target": 1, "from_ns": 1000, "to_ns": 2000}]
	}`
	if err := os.WriteFile(path, []byte(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "custom" || sc.DropRate != 0.25 || sc.Timeout != 15*simtime.Microsecond {
		t.Errorf("loaded scenario = %+v", sc)
	}
	if len(sc.Outages) != 1 || sc.Outages[0].To != 2*simtime.Microsecond {
		t.Errorf("loaded outages = %+v", sc.Outages)
	}
	if _, err := LoadScenario(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"drop_rate": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScenario(bad); err == nil {
		t.Error("invalid rates loaded")
	}
}
