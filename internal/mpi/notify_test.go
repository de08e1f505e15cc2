package mpi

import (
	"bytes"
	"errors"
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/notify"
	"clampi/internal/schedtest"
)

// TestPutNotifyDelivers checks the broadcast contract under both
// goroutine schedules (see schedtest): every subscribed rank except the
// origin receives a descriptor carrying the written bytes, and polls
// after a Fence observe every pre-fence push.
func TestPutNotifyDelivers(t *testing.T) {
	schedtest.Run(t, func(t *testing.T) {
		const ranks = 3
		err := Run(ranks, Config{}, func(r *Rank) error {
			win, _ := r.WinAllocate(256, Info{})
			defer win.Free()
			if err := win.NotifyEnable(16); err != nil {
				return err
			}
			if err := win.Fence(); err != nil {
				return err
			}
			if r.ID() == 0 {
				src := []byte{1, 2, 3, 4}
				if err := win.PutNotify(src, datatype.Byte, len(src), 1, 8, 42); err != nil {
					return err
				}
			}
			if err := win.Fence(); err != nil {
				return err
			}
			buf := make([]notify.Notification, 8)
			n, ov := win.NotifyPoll(buf)
			if ov {
				t.Errorf("rank %d: unexpected overflow", r.ID())
			}
			switch r.ID() {
			case 0:
				if n != 0 {
					t.Errorf("origin received %d notifications, want 0", n)
				}
			default:
				if n != 1 {
					t.Fatalf("rank %d received %d notifications, want 1", r.ID(), n)
				}
				nf := buf[0]
				if nf.Origin != 0 || nf.Target != 1 || nf.Disp != 8 || nf.Len != 4 || nf.Tag != 42 || nf.Seq != 1 {
					t.Errorf("rank %d: notification %+v", r.ID(), nf)
				}
				if !bytes.Equal(nf.Data, []byte{1, 2, 3, 4}) {
					t.Errorf("rank %d: data %v", r.ID(), nf.Data)
				}
			}
			return win.Fence()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestPutNotifyLargeWriteOmitsData checks writes above notify.DataMax
// notify with Data == nil (readers must fall back to invalidation).
func TestPutNotifyLargeWriteOmitsData(t *testing.T) {
	size := notify.DataMax + 1
	err := Run(2, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(size, Info{})
		defer win.Free()
		if err := win.NotifyEnable(4); err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if r.ID() == 0 {
			src := make([]byte, size)
			if err := win.PutNotify(src, datatype.Byte, size, 1, 0, 0); err != nil {
				return err
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if r.ID() == 1 {
			buf := make([]notify.Notification, 2)
			n, _ := win.NotifyPoll(buf)
			if n != 1 {
				t.Fatalf("got %d notifications, want 1", n)
			}
			if buf[0].Data != nil {
				t.Errorf("large write carried %d data bytes, want nil", len(buf[0].Data))
			}
			if buf[0].Len != size {
				t.Errorf("Len = %d, want %d", buf[0].Len, size)
			}
		}
		return win.Fence()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNotifyWaitWakes proves NotifyWait releases the serialized run
// token: rank 1 blocks in NotifyWait while rank 0 runs and pushes.
func TestNotifyWaitWakes(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(64, Info{})
		defer win.Free()
		if err := win.NotifyEnable(4); err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if r.ID() == 1 {
			if err := win.NotifyWait(); err != nil {
				return err
			}
			if win.NotifyDepth() != 1 {
				t.Errorf("depth after wait = %d, want 1", win.NotifyDepth())
			}
		} else {
			src := []byte{9}
			if err := win.PutNotify(src, datatype.Byte, 1, 0, 0, 7); err != nil {
				return err
			}
		}
		return win.Fence()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNotifyQueueOverflowInBackend checks a slow reader's bounded queue
// sheds and flags instead of growing or blocking the writer.
func TestNotifyQueueOverflowInBackend(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(64, Info{})
		defer win.Free()
		if err := win.NotifyEnable(2); err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if r.ID() == 0 {
			src := []byte{1}
			for i := 0; i < 5; i++ {
				if err := win.PutNotify(src, datatype.Byte, 1, 1, i, 0); err != nil {
					return err
				}
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if r.ID() == 1 {
			buf := make([]notify.Notification, 8)
			n, ov := win.NotifyPoll(buf)
			if n != 2 || !ov {
				t.Errorf("Poll = (%d, %v), want (2, true)", n, ov)
			}
		}
		return win.Fence()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNotifyBeforeEnable checks the unsubscribed surface is inert.
func TestNotifyBeforeEnable(t *testing.T) {
	err := Run(1, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(64, Info{})
		defer win.Free()
		if win.NotifyDepth() != 0 {
			t.Error("depth before enable != 0")
		}
		if n, ov := win.NotifyPoll(make([]notify.Notification, 1)); n != 0 || ov {
			t.Errorf("Poll before enable = (%d, %v)", n, ov)
		}
		if err := win.NotifyWait(); !errors.Is(err, ErrNotSubscribed) {
			t.Errorf("NotifyWait before enable = %v, want ErrNotSubscribed", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
