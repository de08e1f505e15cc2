package workload

import (
	"testing"
)

func TestDistinctProperties(t *testing.T) {
	specs, region := Distinct(1000, 42)
	if len(specs) != 1000 {
		t.Fatalf("len = %d", len(specs))
	}
	seen := map[int]bool{}
	end := 0
	for _, s := range specs {
		if s.Size < 1 || s.Size > 1<<MaxSizeExp {
			t.Fatalf("size %d out of range", s.Size)
		}
		if s.Size&(s.Size-1) != 0 {
			t.Fatalf("size %d not a power of two", s.Size)
		}
		if s.Disp < end && end > 0 && s.Disp != 0 {
			// displacements are non-decreasing and non-overlapping
		}
		if s.Disp < 0 || seen[s.Disp] {
			t.Fatalf("duplicate or negative disp %d", s.Disp)
		}
		if s.Disp < end {
			t.Fatalf("overlapping gets: disp %d < previous end %d", s.Disp, end)
		}
		seen[s.Disp] = true
		end = s.Disp + s.Size
	}
	if region < end {
		t.Fatalf("region %d smaller than last get end %d", region, end)
	}
}

func TestDistinctCoversAllSizes(t *testing.T) {
	specs, _ := Distinct(2000, 1)
	bySize := map[int]int{}
	for _, s := range specs {
		bySize[s.Size]++
	}
	// With 2000 uniform draws over 17 sizes, every size class appears.
	for i := 0; i <= MaxSizeExp; i++ {
		if bySize[1<<i] == 0 {
			t.Fatalf("size 2^%d never drawn", i)
		}
	}
}

func TestDistinctEdgeCases(t *testing.T) {
	if s, r := Distinct(0, 1); s != nil || r != 0 {
		t.Fatalf("Distinct(0) = %v,%d", s, r)
	}
	if s := Sequence(0, 10, 1); s != nil {
		t.Fatalf("Sequence(0) = %v", s)
	}
	if s := Sequence(10, 0, 1); s != nil {
		t.Fatalf("Sequence(,0) = %v", s)
	}
}

func TestSequenceDistribution(t *testing.T) {
	const n, z = 1000, 20000
	seq := Sequence(n, z, 7)
	if len(seq) != z {
		t.Fatalf("len = %d", len(seq))
	}
	counts := make([]int, n)
	for _, i := range seq {
		if i < 0 || i >= n {
			t.Fatalf("index %d out of range", i)
		}
		counts[i]++
	}
	// Normal(n/2, n/4): the central band must be far more popular than
	// the tails (the paper's working-set construction).
	center, tail := 0, 0
	for i := 2 * n / 5; i < 3*n/5; i++ {
		center += counts[i]
	}
	for i := 0; i < n/10; i++ {
		tail += counts[i]
	}
	if center <= 3*tail {
		t.Fatalf("sequence not centrally concentrated: center=%d tail=%d", center, tail)
	}
}

func TestSequenceDeterministic(t *testing.T) {
	a := Sequence(100, 500, 3)
	b := Sequence(100, 500, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed sequences differ at %d", i)
		}
	}
}

func TestMicro(t *testing.T) {
	specs, seq, region := Micro(100, 1000, 5)
	if len(specs) != 100 || len(seq) != 1000 || region <= 0 {
		t.Fatalf("Micro: %d specs, %d seq, region %d", len(specs), len(seq), region)
	}
}
