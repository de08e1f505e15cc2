package cuckoo

import "testing"

// FuzzTableOps drives the Cuckoo table with an op tape against a map
// oracle: lookups must agree with the oracle at every step, and the
// table must survive insertion failures (conflicting accesses) without
// losing unrelated keys.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 201, 100})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tb := New[int](64, 5)
		oracle := make(map[Key]int)
		for i, op := range ops {
			k := Key{Target: int(op) % 4, Disp: (int(op) / 4) * 8}
			switch {
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
				} else {
					// The homeless element (new or displaced)
					// is no longer stored.
					if res.HomelessKey == k {
						// new key failed: oracle unchanged
					} else {
						delete(oracle, res.HomelessKey)
						oracle[k] = i
					}
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
