package datatype

import "testing"

func TestPrimitives(t *testing.T) {
	cases := []struct {
		dt   Datatype
		size int
		name string
	}{
		{Byte, 1, "BYTE"},
		{Int32, 4, "INT32"},
		{Int64, 8, "INT64"},
		{Double, 8, "DOUBLE"},
	}
	for _, c := range cases {
		if c.dt.Size() != c.size {
			t.Errorf("%s: size=%d, want %d", c.name, c.dt.Size(), c.size)
		}
	}
	// Int64 and Double share a width but stay distinct types (the
	// accumulate arithmetic switches on them).
	if Int64 == Double {
		t.Fatalf("Int64 and Double compare equal")
	}
}

func TestTransferSize(t *testing.T) {
	if TransferSize(Int32, 10) != 40 {
		t.Fatalf("TransferSize = %d", TransferSize(Int32, 10))
	}
	if TransferSize(Int32, -1) != 0 {
		t.Fatalf("negative count must size to 0")
	}
	if TransferSize(Double, 0) != 0 || TransferSize(Datatype{}, 7) != 0 {
		t.Fatalf("a zero count or the zero Datatype must size to 0")
	}
}

func TestStringForms(t *testing.T) {
	for dt, want := range map[Datatype]string{Byte: "BYTE", Int32: "INT32", Int64: "INT64", Double: "DOUBLE", {}: ""} {
		if dt.String() != want {
			t.Errorf("String() = %q, want %q", dt.String(), want)
		}
	}
}
