package cuckoo

import (
	"slices"
	"testing"
)

// FuzzTableOps drives the Cuckoo table with an op tape against a map
// oracle: lookups must agree with the oracle at every step, an insertion
// failure (a conflicting access) must leave the table as it was, and a
// drain (byte 255) must visit exactly the oracle's entries and leave the
// table empty.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 201, 100})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9})
	// Every byte that inserts, in order: the 64 slots fill up, so the
	// full-table shortcut runs too.
	var fill []byte
	for op := 0; op < 256; op++ {
		if op%3 != 0 {
			fill = append(fill, byte(op))
		}
	}
	f.Add(fill)
	f.Add(append(append(slices.Clip(fill), 255), fill[:40]...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		tb := New[int](64, 5)
		oracle := make(map[Key]int)
		for i, op := range ops {
			k := Key{Target: int(op) % 4, Disp: (int(op) / 4) * 8}
			switch {
			case op == 255:
				tb.Drain(func(k Key, v int) {
					if w, ok := oracle[k]; !ok || w != v {
						t.Fatalf("op %d: drain visited %v=%d, oracle %d (present %v)", i, k, v, w, ok)
					}
					delete(oracle, k)
				})
				if len(oracle) != 0 {
					t.Fatalf("op %d: drain missed %d entries", i, len(oracle))
				}
			case op%3 == 0:
				if _, present := oracle[k]; present {
					tb.Delete(k)
					delete(oracle, k)
				}
			default:
				if _, present := oracle[k]; present {
					tb.Update(k, i)
					oracle[k] = i
					continue
				}
				res := tb.Insert(k, i)
				if res.Placed {
					oracle[k] = i
				} else if res.HomelessKey != k {
					// A failure leaves the new key homeless and
					// the oracle unchanged.
					t.Fatalf("op %d: failed insert of %v left %v homeless", i, k, res.HomelessKey)
				}
			}
			// The table and the oracle agree.
			for k, v := range oracle {
				got, _, ok := tb.Lookup(k)
				if !ok || got != v {
					t.Fatalf("op %d: oracle has %v=%d, table has %d,%v", i, k, v, got, ok)
				}
			}
			if tb.Len() != len(oracle) {
				t.Fatalf("op %d: len %d vs oracle %d", i, tb.Len(), len(oracle))
			}
			checkTags(t, tb)
		}
	})
}
