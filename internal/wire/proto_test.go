package wire

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"clampi/internal/rma"
)

// TestFrameRoundTrip encodes and decodes frames across the payload-size
// spectrum, including the empty payload.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0x42},
		bytes.Repeat([]byte{0xAB}, 255),
		bytes.Repeat([]byte{0x00}, 4096),
	}
	for i, p := range payloads {
		op := byte(OpGet + byte(i%5))
		seq := uint64(i)*7919 + 1
		b := AppendFrame(nil, op, seq, p)
		f, n, err := DecodeFrame(b, 0)
		if err != nil {
			t.Fatalf("payload %d: decode: %v", i, err)
		}
		if n != len(b) {
			t.Fatalf("payload %d: consumed %d of %d", i, n, len(b))
		}
		if f.Op != op || f.Seq != seq || !bytes.Equal(f.Payload, p) {
			t.Fatalf("payload %d: round trip mismatch: %+v", i, f)
		}
	}
}

// TestDecodeFrameFailures is the corruption table: every way a frame can
// be damaged — truncation, bit flips in any section, hostile lengths —
// must surface as a sentinel in the rma.ErrTransient family (with
// structural damage narrowing to rma.ErrCorrupt) and must never panic or
// deliver bytes.
func TestDecodeFrameFailures(t *testing.T) {
	good := AppendFrame(nil, OpGet, 42, []byte("the payload under test"))
	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		max     int
		want    error // specific sentinel the failure must match
		corrupt bool  // must additionally match rma.ErrCorrupt
	}{
		{"empty", func(b []byte) []byte { return nil }, 0, rma.ErrTransient, false},
		{"short header", func(b []byte) []byte { return b[:headerSize-1] }, 0, rma.ErrTransient, false},
		{"truncated payload", func(b []byte) []byte { return b[:headerSize+3] }, 0, rma.ErrTransient, false},
		{"truncated checksum", func(b []byte) []byte { return b[:len(b)-1] }, 0, rma.ErrTransient, false},
		{"bad magic byte 0", func(b []byte) []byte { b[0] ^= 0xFF; return b }, 0, ErrProto, true},
		{"bad magic byte 1", func(b []byte) []byte { b[1] ^= 0x01; return b }, 0, ErrProto, true},
		{"bad version", func(b []byte) []byte { b[2] = Version + 1; return b }, 0, ErrProto, true},
		{"flipped op bit", func(b []byte) []byte { b[3] ^= 0x10; return b }, 0, ErrChecksum, true},
		{"flipped seq bit", func(b []byte) []byte { b[5] ^= 0x80; return b }, 0, ErrChecksum, true},
		{"flipped payload bit", func(b []byte) []byte { b[headerSize] ^= 0x04; return b }, 0, ErrChecksum, true},
		{"flipped checksum bit", func(b []byte) []byte { b[len(b)-2] ^= 0x02; return b }, 0, ErrChecksum, true},
		{"hostile length", func(b []byte) []byte { b[12], b[13], b[14], b[15] = 0xFF, 0xFF, 0xFF, 0x7F; return b }, 0, ErrFrameTooBig, true},
		{"over negotiated limit", func(b []byte) []byte { return b }, 4, ErrFrameTooBig, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			f, _, err := DecodeFrame(b, tc.max)
			if err == nil {
				t.Fatalf("decoded damaged frame: %+v", f)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if !errors.Is(err, rma.ErrTransient) {
				t.Fatalf("err = %v escapes the rma.ErrTransient family", err)
			}
			if tc.corrupt != errors.Is(err, rma.ErrCorrupt) {
				t.Fatalf("err = %v: ErrCorrupt match = %v, want %v", err, !tc.corrupt, tc.corrupt)
			}
		})
	}
}

// FuzzWireFrame holds DecodeFrame to its contract on arbitrary bytes: it
// never panics, every failure stays inside the rma.ErrTransient family,
// and a successful decode round-trips — re-encoding the decoded frame
// reproduces exactly the consumed prefix. The same input also exercises
// the encode→decode direction as a payload.
func FuzzWireFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, OpGet, 1, []byte("seed")))
	f.Add(AppendFrame(nil, OpData, 1<<40, nil))
	f.Add(AppendFrame(nil, OpError, 7, appendError(nil, CodeBounds, "out of range")))
	f.Add([]byte{magic0, magic1, Version, OpGet, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{magic0}, 64))
	f.Add(v1Frame(OpGet, 1, []byte("seed"))) // a version-1 peer: FNV-1a trailer, must fail as ErrProto
	f.Fuzz(func(t *testing.T, data []byte) {
		const max = 1 << 20
		fr, n, err := DecodeFrame(data, max)
		if err != nil {
			if !errors.Is(err, rma.ErrTransient) {
				t.Fatalf("decode failure %v escapes the rma.ErrTransient family", err)
			}
		} else {
			if n < headerSize+checksumSize || n > len(data) {
				t.Fatalf("consumed %d of %d", n, len(data))
			}
			re := AppendFrame(nil, fr.Op, fr.Seq, fr.Payload)
			if !bytes.Equal(re, data[:n]) {
				t.Fatalf("re-encode of decoded frame diverges from input")
			}
		}
		// Encode direction: any bytes are a valid payload.
		if len(data) <= max {
			b := AppendFrame(nil, OpPut, 99, data)
			got, n2, err2 := DecodeFrame(b, max)
			if err2 != nil || n2 != len(b) {
				t.Fatalf("decode of encoded frame: n=%d err=%v", n2, err2)
			}
			if got.Op != OpPut || got.Seq != 99 || !bytes.Equal(got.Payload, data) {
				t.Fatalf("payload round trip mismatch")
			}
		}
	})
}

// TestPayloadCodecs round-trips every payload encoding and rejects short
// or malformed payloads with ErrProto (never a panic).
func TestPayloadCodecs(t *testing.T) {
	t.Run("hello", func(t *testing.T) {
		in := helloPayload{Rank: 3, World: 8, Window: "graph"}
		out, err := decodeHello(appendHello(nil, in))
		if err != nil || out != in {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
		if _, err := decodeHello([]byte{1, 2}); !errors.Is(err, ErrProto) {
			t.Fatalf("short hello: %v", err)
		}
		if _, err := decodeHello(appendHello(nil, in)[:11]); !errors.Is(err, ErrProto) {
			t.Fatalf("clipped hello name: %v", err)
		}
	})
	t.Run("welcome", func(t *testing.T) {
		in := welcomePayload{Rank: 5, Regions: []int64{1024, 2048, 0}}
		out, err := decodeWelcome(appendWelcome(nil, in))
		if err != nil || out.Rank != in.Rank || len(out.Regions) != 3 || out.Regions[1] != 2048 {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
		if _, err := decodeWelcome([]byte{0}); !errors.Is(err, ErrProto) {
			t.Fatalf("short welcome: %v", err)
		}
		if _, err := decodeWelcome(appendWelcome(nil, in)[:12]); !errors.Is(err, ErrProto) {
			t.Fatalf("clipped welcome regions: %v", err)
		}
	})
	t.Run("range", func(t *testing.T) {
		in := rangeReq{Target: 2, Disp: 4096, Size: 512}
		out, err := decodeRange(appendRange(nil, in))
		if err != nil || out != in {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
		if _, err := decodeRange(make([]byte, rangeReqSize-1)); !errors.Is(err, ErrProto) {
			t.Fatalf("short range: %v", err)
		}
	})
	t.Run("put", func(t *testing.T) {
		in := putReq{Target: 1, Disp: 64, Data: []byte{9, 8, 7}}
		out, err := decodePut(appendPut(nil, in))
		if err != nil || out.Target != 1 || out.Disp != 64 || !bytes.Equal(out.Data, in.Data) {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
		if _, err := decodePut(make([]byte, 11)); !errors.Is(err, ErrProto) {
			t.Fatalf("short put: %v", err)
		}
	})
	t.Run("accumulate", func(t *testing.T) {
		in := accReq{Target: 0, Disp: 8, Op: byte(rma.OpSum), Kind: accInt64, Data: []byte{1, 0, 0, 0, 0, 0, 0, 0}}
		out, err := decodeAcc(appendAcc(nil, in))
		if err != nil || out.Target != 0 || out.Op != in.Op || out.Kind != accInt64 || !bytes.Equal(out.Data, in.Data) {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
		if _, err := decodeAcc(make([]byte, 13)); !errors.Is(err, ErrProto) {
			t.Fatalf("short accumulate: %v", err)
		}
	})
	t.Run("batch", func(t *testing.T) {
		ops := []rma.GetOp{
			{Dst: make([]byte, 16), Target: 0, Disp: 0},
			{Dst: make([]byte, 32), Target: 3, Disp: 128},
		}
		body := appendBatch(nil, ops)
		n, err := decodeBatch(body)
		if err != nil || n != 2 || batchRange(body, 1) != (rangeReq{Target: 3, Disp: 128, Size: 32}) {
			t.Fatalf("round trip: %d ops, %v", n, err)
		}
		if _, err := decodeBatch([]byte{1, 2, 3}); !errors.Is(err, ErrProto) {
			t.Fatalf("short batch: %v", err)
		}
		if _, err := decodeBatch(appendBatch(nil, ops)[:9]); !errors.Is(err, ErrProto) {
			t.Fatalf("clipped batch ops: %v", err)
		}
	})
	t.Run("lock", func(t *testing.T) {
		in := lockReq{Target: 7, Type: byte(rma.LockExclusive)}
		out, err := decodeLock(appendLock(nil, in))
		if err != nil || out != in {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
		if _, err := decodeLock(make([]byte, 4)); !errors.Is(err, ErrProto) {
			t.Fatalf("short lock: %v", err)
		}
	})
	t.Run("error", func(t *testing.T) {
		code, msg, err := decodeError(appendError(nil, CodeBounds, "oops"))
		if err != nil || code != CodeBounds || msg != "oops" {
			t.Fatalf("round trip: %d %q %v", code, msg, err)
		}
		if _, _, err := decodeError([]byte{1}); !errors.Is(err, ErrProto) {
			t.Fatalf("short error: %v", err)
		}
	})
}

// TestErrorCodeRoundTrip feeds every server-classifiable sentinel
// through errorToCode → codeToError and checks the reconstructed error
// still matches the original sentinel with errors.Is — the property that
// makes wire and simulated backends indistinguishable to error handling.
func TestErrorCodeRoundTrip(t *testing.T) {
	sentinels := []error{
		rma.ErrRankRange,
		rma.ErrBounds,
		ErrBadAccumulate,
		ErrProto,
		ErrBadWindow,
		ErrBadWorld,
		ErrShutdown,
	}
	for _, want := range sentinels {
		wrapped := fmt.Errorf("%w: context", want)
		got := codeToError(errorToCode(wrapped), wrapped.Error())
		if !errors.Is(got, want) {
			t.Errorf("sentinel %v round-tripped to %v", want, got)
		}
	}
	// Unknown codes and unclassified failures degrade to transient.
	if got := codeToError(CodeInternal, "boom"); !errors.Is(got, rma.ErrTransient) {
		t.Errorf("internal code mapped to %v, want transient", got)
	}
	if got := codeToError(0xFFFF, "future"); !errors.Is(got, rma.ErrTransient) {
		t.Errorf("unknown code mapped to %v, want transient", got)
	}
}
