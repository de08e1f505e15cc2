package experiments

import "testing"

func TestAblationSampleSize(t *testing.T) {
	rows, tbl, err := AblationSampleSize([]int{1, 4, 16, 64}, 256, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + tbl.String())
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Larger samples visit at least as many slots...
	if rows[3].Visited < rows[0].Visited {
		t.Errorf("M=64 visited %.1f < M=1 visited %.1f", rows[3].Visited, rows[0].Visited)
	}
	// ...and pick victims at least as well (occupancy not worse by
	// more than noise).
	if rows[3].Occupancy < rows[0].Occupancy-0.1 {
		t.Errorf("M=64 occupancy %.3f well below M=1 %.3f", rows[3].Occupancy, rows[0].Occupancy)
	}
	for _, r := range rows {
		if r.HitRate <= 0 || r.Time <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
}

func TestAblationAllocPolicy(t *testing.T) {
	rows, tbl, err := AblationAllocPolicy(256, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + tbl.String())
	}
	if len(rows) != 2 || rows[0].Policy != "best-fit" || rows[1].Policy != "first-fit" {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.HitRate <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	// Best fit must not fail-to-cache more than first fit by a wide
	// margin (it is the paper's choice for a reason).
	if rows[0].FailRate > rows[1].FailRate+0.05 {
		t.Errorf("best-fit failing rate %.3f far above first-fit %.3f", rows[0].FailRate, rows[1].FailRate)
	}
}

func TestAblationCuckooSearch(t *testing.T) {
	rows, tbl, err := AblationCuckooSearch([]int{4, 16, 64, 256}, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Log("\n" + tbl.String())
	}
	// Utilization at first failure grows monotonically with the search
	// budget and approaches the ~97% of Fotakis et al.
	for i := 1; i < len(rows); i++ {
		if rows[i].FirstFail < rows[i-1].FirstFail-0.02 {
			t.Errorf("utilization fell: budget %d → %.3f, %d → %.3f",
				rows[i-1].Budget, rows[i-1].FirstFail, rows[i].Budget, rows[i].FirstFail)
		}
	}
	if last := rows[len(rows)-1]; last.FirstFail < 0.9 {
		t.Errorf("a 256-slot search budget only reached %.3f utilization", last.FirstFail)
	}
	// A budget of p examines only the key's own candidates: nothing
	// moves. No insert moves more elements than its budget examines.
	if rows[0].MaxMoves != 0 {
		t.Errorf("budget 4 moved up to %d elements", rows[0].MaxMoves)
	}
	for _, r := range rows {
		if r.MaxMoves > r.Budget {
			t.Errorf("budget %d moved up to %d elements", r.Budget, r.MaxMoves)
		}
	}
}
