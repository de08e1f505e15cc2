package rma

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"
)

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
		m := NewMemory([][]byte{make([]byte, c.size)})
		n, shift := len(m.locks[0]), m.shift[0]
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

// patternMemory returns a one-region Memory whose byte i is byte(i).
func patternMemory(size int) *Memory {
	region := make([]byte, size)
	for i := range region {
		region[i] = byte(i)
	}
	return NewMemory([][]byte{region})
}

// TestStripeGranularity proves locking is per-(target, region-stripe),
// not per-target: with one stripe held exclusively, a Read of a
// *different* stripe completes, and with it held shared, a Read of the
// *same* stripe completes. A per-target mutex would deadlock this test.
func TestStripeGranularity(t *testing.T) {
	const width = 1 << 10
	m := patternMemory(8 * width) // 8 stripes of 1 KiB
	buf := make([]byte, 64)

	m.locks[0][0].Lock()
	m.Read(buf[:0], 0, width, len(buf))
	m.locks[0][0].Unlock()
	if want := m.regions[0][width : width+len(buf)]; !bytes.Equal(buf, want) {
		t.Fatalf("read of stripe 1 beside held stripe 0 = %v, want %v", buf, want)
	}

	m.locks[0][0].RLock()
	m.Read(buf[:0], 0, 0, len(buf))
	m.locks[0][0].RUnlock()
	if want := m.regions[0][:len(buf)]; !bytes.Equal(buf, want) {
		t.Fatalf("read of shared-held stripe 0 = %v, want %v", buf, want)
	}
}

// TestMemoryLocksAscend proves every method takes its stripes in
// ascending order: with a middle stripe held, a Write and a Read that
// span the region each take exactly the stripes below it, none above,
// and wait. A method that takes them in any other order — all descending,
// or readers against writers — fails here within the bound instead of
// deadlocking against a concurrent opposite-order operation elsewhere.
func TestMemoryLocksAscend(t *testing.T) {
	const held = 4
	ops := []struct {
		name string
		run  func(m *Memory)
	}{
		{"Write", func(m *Memory) { m.Write(make([]byte, m.Size(0)), 0, 0) }},
		{"Read", func(m *Memory) { m.Read(nil, 0, 0, m.Size(0)) }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			m := patternMemory(2048) // 8 stripes of 256 B
			stripes := m.locks[0]
			stripes[held].Lock()
			done := make(chan struct{})
			go func() {
				op.run(m)
				close(done)
			}()

			want := []int{0, 1, 2, 3}
			var got []int
			for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) { //clampi:walltime bounded wait for the stripes to settle
				if got = takenStripes(stripes, held); slices.Equal(got, want) {
					break
				}
			}
			stripes[held].Unlock()
			select {
			case <-done:
			case <-time.After(5 * time.Second): //clampi:walltime test watchdog
				t.Fatalf("%s did not finish after stripe %d was released", op.name, held)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s held stripes %v while waiting for stripe %d, want %v", op.name, got, held, want)
			}
			if got := takenStripes(stripes, -1); len(got) != 0 {
				t.Fatalf("%s returned still holding stripes %v", op.name, got)
			}
		})
	}
}

// takenStripes lists the stripes other than skip that some goroutine
// holds, shared or exclusive; a stripe found free is released at once.
func takenStripes(stripes []sync.RWMutex, skip int) []int {
	var taken []int
	for i := range stripes {
		if i == skip {
			continue
		}
		if stripes[i].TryLock() {
			stripes[i].Unlock()
		} else {
			taken = append(taken, i)
		}
	}
	return taken
}
