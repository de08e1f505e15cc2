package wire

import (
	"errors"
	"math"
	"testing"
	"time"

	"clampi/internal/datatype"
	"clampi/internal/obsv"
	"clampi/internal/rma"
)

// FuzzClientRange drives arbitrary (target, disp, size) through every
// client call that checks a range — Get, Put, PutNotify, GetBatch and
// Checksum — and holds each result to rma.Memory.Check's verdict over the
// same regions: ErrRankRange or ErrBounds comes back exactly when Check
// refuses, and then no frame reaches the server. The one exception is the
// zero-byte transfer, which succeeds at any displacement of a target in
// range and sends nothing. Transfer and batch sizes are folded into
// [0, maxBuf]; Checksum takes the size as drawn, negative or past MaxInt
// included.
func FuzzClientRange(f *testing.F) {
	for _, disp := range []int{math.MaxInt, math.MaxInt - 2, math.MaxInt - 7} {
		f.Add(1, disp, 8)
	}
	f.Add(0, 1016, 8)
	f.Add(2, 0, 0)
	f.Add(-1, 0, 8)

	const maxBuf = 2048
	regions := func() [][]byte { return [][]byte{make([]byte, 1024), make([]byte, 77), {}} }
	mem := rma.NewMemory(regions())
	reg := obsv.NewRegistry()
	s, err := Serve(ServeConfig{Network: "tcp", Addr: "127.0.0.1:0", Registry: reg,
		Windows: []WindowSpec{{Name: "w", Regions: regions()}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Shutdown(2 * time.Second) }) //clampi:walltime test teardown drain window
	w, err := Open(DialConfig{Network: "tcp", Addr: s.Addr().String(), Window: "w", Rank: RankAuto}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { w.Free() })
	if err := w.LockAll(); err != nil {
		f.Fatal(err)
	}
	framesIn := reg.Counter("wire_server_frames_total", obsv.L("dir", "in"))
	buf := make([]byte, maxBuf)

	f.Fuzz(func(t *testing.T, target, disp, size int) {
		n := int(uint(size) % (maxBuf + 1))
		zero := func(want error) error {
			if n == 0 && !errors.Is(want, rma.ErrRankRange) {
				return nil
			}
			return want
		}
		calls := []struct {
			name string
			want error
			call func() error
		}{
			{"Get", zero(mem.Check(target, disp, n)), func() error { return w.Get(buf[:n], datatype.Byte, n, target, disp) }},
			{"Put", zero(mem.Check(target, disp, n)), func() error { return w.Put(buf[:n], datatype.Byte, n, target, disp) }},
			{"PutNotify", zero(mem.Check(target, disp, n)), func() error { return w.PutNotify(buf[:n], datatype.Byte, n, target, disp, 1) }},
			{"GetBatch", zero(mem.Check(target, disp, n)), func() error {
				return w.GetBatch([]rma.GetOp{{Dst: buf[:n], Target: target, Disp: disp}})
			}},
			{"Checksum", mem.Check(target, disp, size), func() error { _, err := w.Checksum(target, disp, size); return err }},
		}
		for _, c := range calls {
			before := framesIn.Value()
			err := c.call()
			switch {
			case c.want == nil && err != nil:
				t.Fatalf("%s(%d, %d, %d) = %v; Check accepts the range", c.name, target, disp, size, err)
			case c.want != nil && !errors.Is(err, c.want):
				t.Fatalf("%s(%d, %d, %d) = %v, want %v", c.name, target, disp, size, err, c.want)
			case c.want != nil && framesIn.Value() != before:
				t.Fatalf("%s(%d, %d, %d) refused, but the server received %d frames", c.name, target, disp, size, framesIn.Value()-before)
			case n == 0 && c.name != "Checksum" && framesIn.Value() != before:
				t.Fatalf("%s(%d, %d, %d) moves no bytes, but the server received %d frames", c.name, target, disp, size, framesIn.Value()-before)
			}
		}
	})
}
