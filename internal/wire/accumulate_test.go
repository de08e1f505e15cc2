package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/mpi"
	"clampi/internal/rma"
)

// accumulateVia accumulates src into the head of target 0's region and
// reads the result back through the same window.
func accumulateVia(win rma.Window, src []byte, dtype datatype.Datatype, count int, op rma.Op) ([]byte, error) {
	if err := win.LockAll(); err != nil {
		return nil, err
	}
	if err := win.Accumulate(src, dtype, count, 0, 0, op); err != nil {
		return nil, err
	}
	if err := win.FlushAll(); err != nil {
		return nil, err
	}
	out := make([]byte, len(src))
	if err := win.Get(out, datatype.Byte, len(out), 0, 0); err != nil {
		return nil, err
	}
	if err := win.FlushAll(); err != nil {
		return nil, err
	}
	return out, win.UnlockAll()
}

// TestAccumulateHostsAgree drives the same accumulate — every element
// kind under every operator, over the operands where two arithmetics can
// part ways: NaN on either side, signed zeros, infinities, integer
// overflow — through a simulated window and through a served one, and
// compares the region bytes. The Double MAX/MIN rows also pin the rule
// internal/rma's accumulate documents: NaN propagates, -0 orders below +0.
func TestAccumulateHostsAgree(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	// resident[i] is combined with incoming[i].
	floats := struct{ resident, incoming, wantMax, wantMin []float64 }{
		resident: []float64{1, nan, negZero, 0, inf, -inf, 1.5, math.MaxFloat64},
		incoming: []float64{nan, 1, 0, negZero, -inf, inf, 2.25, math.MaxFloat64},
		wantMax:  []float64{nan, nan, 0, 0, inf, inf, 2.25, math.MaxFloat64},
		wantMin:  []float64{nan, nan, negZero, negZero, -inf, -inf, 1.5, math.MaxFloat64},
	}
	i32 := struct{ resident, incoming []int32 }{
		resident: []int32{1, -5, math.MaxInt32, math.MinInt32, 0, 7},
		incoming: []int32{2, 7, 1, -1, 0, 7},
	}
	i64 := struct{ resident, incoming []int64 }{
		resident: []int64{1, -5, math.MaxInt64, math.MinInt64, 0, 7},
		incoming: []int64{2, 7, 1, -1, 0, 7},
	}
	le := binary.LittleEndian
	// enc packs a slice of fixed-size values little-endian.
	enc := func(vs any) []byte {
		var b bytes.Buffer
		if err := binary.Write(&b, le, vs); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	kinds := []struct {
		dtype              datatype.Datatype
		resident, incoming []byte
	}{
		{datatype.Int32, enc(i32.resident), enc(i32.incoming)},
		{datatype.Int64, enc(i64.resident), enc(i64.incoming)},
		{datatype.Double, enc(floats.resident), enc(floats.incoming)},
	}
	ops := []struct {
		op   rma.Op
		name string
	}{{rma.OpReplace, "REPLACE"}, {rma.OpSum, "SUM"}, {rma.OpMax, "MAX"}, {rma.OpMin, "MIN"}}

	for _, k := range kinds {
		count := len(k.incoming) / k.dtype.Size()
		for _, o := range ops {
			name := fmt.Sprintf("%s/%s", k.dtype, o.name)

			var sim []byte
			err := mpi.Run(1, mpi.Config{}, func(r *mpi.Rank) error {
				win := r.WinCreate(append([]byte(nil), k.resident...), nil)
				defer win.Free()
				var err error
				sim, err = accumulateVia(win, k.incoming, k.dtype, count, o.op)
				return err
			})
			if err != nil {
				t.Fatalf("%s: simulated window: %v", name, err)
			}

			s := testServer(t, ServeConfig{Windows: []WindowSpec{{
				Name: "acc", Regions: [][]byte{append([]byte(nil), k.resident...)},
			}}})
			served, err := accumulateVia(dialWindow(t, s, DialConfig{Window: "acc"}), k.incoming, k.dtype, count, o.op)
			if err != nil {
				t.Fatalf("%s: served window: %v", name, err)
			}

			if !bytes.Equal(sim, served) {
				t.Errorf("%s: the hosts disagree\n simulated %x\n    served %x", name, sim, served)
			}
			if k.dtype != datatype.Double || (o.op != rma.OpMax && o.op != rma.OpMin) {
				continue
			}
			want := floats.wantMax
			if o.op == rma.OpMin {
				want = floats.wantMin
			}
			for i, w := range want {
				got := math.Float64frombits(le.Uint64(sim[8*i:]))
				if math.IsNaN(w) != math.IsNaN(got) || (!math.IsNaN(w) && math.Float64bits(got) != math.Float64bits(w)) {
					t.Errorf("%s(%v, %v) = %v, want %v", name, floats.resident[i], floats.incoming[i], got, w)
				}
			}
		}
	}
}
