package wire

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/notify"
)

// TestNotifyOverWire drives the notification path end to end over a TCP
// loopback: two clients subscribe, rank 0 PutNotifies, and after the
// Fence rendezvous rank 1's poll observes exactly the pushed descriptor
// (with its data) while the origin observes nothing.
func TestNotifyOverWire(t *testing.T) {
	s := testServer(t, ServeConfig{
		Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(2, 256)}},
		World:   2,
	})
	ws := []*Window{
		dialWindow(t, s, DialConfig{Window: "w", Rank: 0, World: 2}),
		dialWindow(t, s, DialConfig{Window: "w", Rank: 1, World: 2}),
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	run := func(rank int, f func(w *Window) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank] = f(ws[rank])
		}()
	}
	run(0, func(w *Window) error {
		if err := w.NotifyEnable(16); err != nil {
			return err
		}
		if err := w.Fence(); err != nil {
			return err
		}
		src := []byte{1, 2, 3, 4}
		if err := w.PutNotify(src, datatype.Byte, len(src), 1, 8, 42); err != nil {
			return err
		}
		if err := w.Fence(); err != nil {
			return err
		}
		buf := make([]notify.Notification, 4)
		if n, ov := w.NotifyPoll(buf); n != 0 || ov {
			t.Errorf("origin Poll = (%d, %v), want (0, false)", n, ov)
		}
		return w.Fence()
	})
	run(1, func(w *Window) error {
		if err := w.NotifyEnable(16); err != nil {
			return err
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if err := w.Fence(); err != nil {
			return err
		}
		// The Fence pump already drained the push into the local queue:
		// depth must be visible without another round trip.
		if d := w.NotifyDepth(); d != 1 {
			t.Errorf("post-fence NotifyDepth = %d, want 1", d)
		}
		buf := make([]notify.Notification, 4)
		n, ov := w.NotifyPoll(buf)
		if n != 1 || ov {
			t.Errorf("reader Poll = (%d, %v), want (1, false)", n, ov)
		} else {
			nf := buf[0]
			if nf.Origin != 0 || nf.Target != 1 || nf.Disp != 8 || nf.Len != 4 || nf.Tag != 42 || nf.Seq != 1 {
				t.Errorf("notification %+v", nf)
			}
			if !bytes.Equal(nf.Data, []byte{1, 2, 3, 4}) {
				t.Errorf("notification data %v", nf.Data)
			}
		}
		// The written bytes really landed on the server.
		back := make([]byte, 4)
		if err := w.Get(back, datatype.Byte, 4, 1, 8); err != nil {
			return err
		}
		if !bytes.Equal(back, []byte{1, 2, 3, 4}) {
			t.Errorf("readback %v", back)
		}
		return w.Fence()
	})
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestNotifyWireOverflow checks a slow reader's bounded queue sheds and
// flags over the wire exactly like in the simulated backend.
func TestNotifyWireOverflow(t *testing.T) {
	s := testServer(t, ServeConfig{
		Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(2, 64)}},
		World:   2,
	})
	ws := []*Window{
		dialWindow(t, s, DialConfig{Window: "w", Rank: 0, World: 2}),
		dialWindow(t, s, DialConfig{Window: "w", Rank: 1, World: 2}),
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	run := func(rank int, f func(w *Window) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank] = f(ws[rank])
		}()
	}
	run(0, func(w *Window) error {
		if err := w.Fence(); err != nil {
			return err
		}
		src := []byte{7}
		for i := 0; i < 5; i++ {
			if err := w.PutNotify(src, datatype.Byte, 1, 1, i, 0); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		return w.Fence()
	})
	run(1, func(w *Window) error {
		if err := w.NotifyEnable(2); err != nil {
			return err
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if err := w.Fence(); err != nil {
			return err
		}
		buf := make([]notify.Notification, 8)
		if n, ov := w.NotifyPoll(buf); n != 2 || !ov {
			t.Errorf("Poll = (%d, %v), want (2, true)", n, ov)
		}
		return w.Fence()
	})
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestNotifyWireElementType checks a PutNotify of Int32 elements notifies
// one span of their bytes, carrying them.
func TestNotifyWireElementType(t *testing.T) {
	s := testServer(t, ServeConfig{
		Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(2, 256)}},
		World:   2,
	})
	ws := []*Window{
		dialWindow(t, s, DialConfig{Window: "w", Rank: 0, World: 2}),
		dialWindow(t, s, DialConfig{Window: "w", Rank: 1, World: 2}),
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	run := func(rank int, f func(w *Window) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank] = f(ws[rank])
		}()
	}
	src := bytes.Repeat([]byte{0xAB}, datatype.TransferSize(datatype.Int32, 3))
	run(0, func(w *Window) error {
		if err := w.Fence(); err != nil {
			return err
		}
		if err := w.PutNotify(src, datatype.Int32, 3, 1, 32, 9); err != nil {
			return err
		}
		if err := w.Fence(); err != nil {
			return err
		}
		return w.Fence()
	})
	run(1, func(w *Window) error {
		if err := w.NotifyEnable(16); err != nil {
			return err
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if err := w.Fence(); err != nil {
			return err
		}
		buf := make([]notify.Notification, 8)
		n, ov := w.NotifyPoll(buf)
		if ov || n != 1 {
			t.Fatalf("Poll = (%d, %v), want (1, false)", n, ov)
		}
		if nf := buf[0]; nf.Disp != 32 || nf.Len != len(src) || nf.Tag != 9 || !bytes.Equal(nf.Data, src) {
			t.Errorf("notification %+v, want disp 32 len %d tag 9 carrying the bytes", nf, len(src))
		}
		return w.Fence()
	})
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestNotifyWireBeforeEnable checks the unsubscribed surface is inert.
func TestNotifyWireBeforeEnable(t *testing.T) {
	s := testServer(t, ServeConfig{
		Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(1, 64)}},
	})
	w := dialWindow(t, s, DialConfig{Window: "w"})
	if d := w.NotifyDepth(); d != 0 {
		t.Errorf("depth before enable = %d", d)
	}
	if n, ov := w.NotifyPoll(make([]notify.Notification, 1)); n != 0 || ov {
		t.Errorf("Poll before enable = (%d, %v)", n, ov)
	}
	if err := w.NotifyWait(); !errors.Is(err, ErrNotSubscribed) {
		t.Errorf("NotifyWait before enable = %v, want ErrNotSubscribed", err)
	}
}
