package rma

import "testing"

// TestMakeStripes pins down the stripe geometry: power-of-two widths of
// at least 256 bytes, at most dataStripes stripes per region, full
// coverage, and a single stripe for empty or tiny regions.
func TestMakeStripes(t *testing.T) {
	cases := []struct {
		size      int
		wantN     int
		wantShift uint
	}{
		{0, 1, 8},
		{1, 1, 8},
		{256, 1, 8},
		{257, 2, 8},
		{2048, 8, 8},
		{2049, 5, 9},     // width 512 covers 2049 bytes in 5 stripes
		{1 << 20, 8, 17}, // 1 MiB: 8 stripes of 128 KiB
	}
	for _, c := range cases {
		s := NewStripes([][]byte{make([]byte, c.size)})
		n, shift := len(s.locks[0]), s.shift[0]
		if n != c.wantN || shift != c.wantShift {
			t.Errorf("size %d: %d stripes shift %d, want %d stripes shift %d",
				c.size, n, shift, c.wantN, c.wantShift)
		}
		if n > dataStripes {
			t.Errorf("size %d: %d stripes exceeds cap %d", c.size, n, dataStripes)
		}
		// Coverage: the last byte maps to an existing stripe.
		if c.size > 0 {
			if last := (c.size - 1) >> shift; last >= n {
				t.Errorf("size %d: last byte in stripe %d of %d", c.size, last, n)
			}
		}
	}
}
