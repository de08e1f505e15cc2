// Package wire is the first real multi-process transport behind the
// internal/rma interfaces: a length-prefixed, versioned binary protocol
// carried over TCP or Unix-domain sockets (DESIGN.md §13).
//
// Everything before this package runs in one process against the
// simulated MPI runtime (internal/mpi). wire moves the window memory
// into a separate daemon process (cmd/clampi-serve) and turns every
// rma.Window operation into a synchronous request/response exchange:
// the caching layer, the getter shims, the batcher and the fault
// injector all compose unchanged, because they only ever see the
// rma.Window contract. It is the first configuration where GetBatch
// coalescing saves real syscalls and where the resilience layer
// (retry, circuit breaker, checksums) faces genuine packet loss.
//
// The op set mirrors the rvma_get/put/flush surface of SNIPPETS.md
// Snippet 1, extended with the batch, integrity and synchronization
// calls the caching layer depends on.
//
// # Frame format (protocol version 2)
//
// Every message — request or response — is one frame:
//
//	offset  size  field
//	0       2     magic 0xC1 0xA7
//	2       1     version (currently 2)
//	3       1     op code
//	4       8     sequence number (little-endian; response echoes request)
//	12      4     payload length n (little-endian)
//	16      n     payload
//	16+n    4     CRC32C (Castagnoli) of bytes [0, 16+n), little-endian
//
// The trailing checksum covers header and payload, so a frame damaged
// anywhere on the wire is rejected as rma.ErrCorrupt — the same
// transient sentinel the fill-verification machinery uses, which makes
// a corrupted frame indistinguishable from a corrupted RDMA payload to
// the layers above: the retry policy refetches, and no damaged byte is
// ever delivered or cached. CRC32C runs on the SSE4.2 / ARMv8 CRC
// instructions (hash/crc32), so integrity costs a fraction of the copy
// it guards, and it detects every error burst of up to 32 bits — a
// guarantee version 1's FNV-1a trailer did not give. The frame code is
// private to this package: the fill attestation carried by OpChecksum
// stays rma.ChecksumBytes.
//
// # Data path
//
// A frame is built in place in the connection's write buffer —
// beginFrame reserves the header, the payload encoders append the body
// (bulk data straight from its source: a window region on the server,
// the caller's slice on the client), sealFrame patches the length and
// appends the CRC — and leaves in one Write. Inbound, frameReader reads
// whatever the socket holds into one buffer and parses frames out of
// it, so a small frame costs one read and a large payload lands where
// its Frame.Payload will alias it.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"clampi/internal/datatype"
	"clampi/internal/rma"
)

// Protocol constants.
const (
	magic0  = 0xC1
	magic1  = 0xA7
	Version = 2

	headerSize   = 16
	checksumSize = 4

	// DefaultMaxPayload bounds a frame's payload, defending both sides
	// against hostile or garbage length fields. Large GetBatch responses
	// must fit: the client splits batches that would exceed it.
	DefaultMaxPayload = 64 << 20

	// frameBufMin is the capacity a connection's frame buffers start at
	// and return to; frameBufKeep is the largest capacity a connection
	// keeps between frames. A frame above it is served from a buffer that
	// is dropped once the frame is consumed, so one MaxPayload-sized
	// transfer does not pin 64 MiB for the connection's life.
	frameBufMin  = 4 << 10
	frameBufKeep = 1 << 20
)

// Op codes. Requests and responses share the namespace; a response
// echoes the request's sequence number with one of the response ops.
const (
	// Requests.
	OpHello      byte = 0x01 // handshake: rank, world, window name
	OpGet        byte = 0x02 // read one contiguous range
	OpPut        byte = 0x03 // write one contiguous range
	OpAccumulate byte = 0x04 // element-wise reduction into a range
	OpGetBatch   byte = 0x05 // read many contiguous ranges in one frame
	OpFlush      byte = 0x06 // pump marker on a subscribe connection; Window.Flush sends nothing
	OpLock       byte = 0x07 // passive-target lock on one target
	OpUnlock     byte = 0x08 // release a passive-target lock
	OpChecksum   byte = 0x09 // integrity attestation of a target range
	OpBarrier    byte = 0x0A // rendezvous of all world members
	OpDetach     byte = 0x0B // orderly goodbye
	OpPutNotify  byte = 0x0C // write one range and notify subscribed ranks
	OpSubscribe  byte = 0x0D // dedicate this connection as a notification sink

	// Responses.
	OpWelcome byte = 0x81 // handshake reply: rank, region sizes
	OpData    byte = 0x82 // payload-carrying success (Get/GetBatch/Checksum)
	OpAck     byte = 0x83 // payload-free success
	OpError   byte = 0x84 // failure: code + message
	OpNotify  byte = 0x85 // server push: a PutNotify descriptor (seq 0)
)

// opNames labels op codes for diagnostics and metrics.
var opNames = map[byte]string{
	OpHello: "hello", OpGet: "get", OpPut: "put", OpAccumulate: "accumulate",
	OpGetBatch: "get_batch", OpFlush: "flush", OpLock: "lock", OpUnlock: "unlock",
	OpChecksum: "checksum", OpBarrier: "barrier", OpDetach: "detach",
	OpPutNotify: "put_notify", OpSubscribe: "subscribe",
	OpWelcome: "welcome", OpData: "data", OpAck: "ack", OpError: "error",
	OpNotify: "notify",
}

// OpName returns the human-readable name of an op code.
func OpName(op byte) string {
	if n, ok := opNames[op]; ok {
		return n
	}
	return fmt.Sprintf("op(0x%02x)", op)
}

// Error codes carried by OpError frames. The client maps each code back
// onto the backend-independent rma sentinel it stands for, so errors.Is
// tests work identically against the simulated and the wire backend
// (DESIGN.md §13 error mapping table).
const (
	CodeInternal  uint16 = 0 // unclassified server failure
	CodeRankRange uint16 = 1 // target rank outside the window's world
	CodeBounds    uint16 = 2 // access outside the target region
	// 3 is unassigned (it named an operation the socket transport could
	// not carry, a code no server sent). A client treats it like any
	// unknown code.
	CodeBadAcc    uint16 = 4 // unsupported accumulate datatype/op
	CodeProto     uint16 = 5 // malformed request frame or payload
	CodeBadWindow uint16 = 6 // unknown window name in Hello
	CodeBadWorld  uint16 = 7 // inconsistent world/rank declaration
	CodeShutdown  uint16 = 8 // server is draining; connection retired
)

// Protocol-level errors. ErrProto covers structurally malformed frames
// whose framing is still intact (bad magic, version, op, payload shape);
// it matches rma.ErrCorrupt — and therefore rma.ErrTransient — because a
// malformed frame on a healthy connection is indistinguishable from
// wire damage and a retry is the correct reaction.
var (
	// ErrProto reports a malformed or unexpected frame.
	ErrProto = fmt.Errorf("%w: malformed wire frame", rma.ErrCorrupt)
	// ErrChecksum reports a frame whose trailing CRC32C does not
	// match its bytes. Matches rma.ErrCorrupt.
	ErrChecksum = fmt.Errorf("%w: wire frame checksum mismatch", rma.ErrCorrupt)
	// ErrFrameTooBig reports a frame whose declared payload exceeds the
	// negotiated maximum. Matches rma.ErrCorrupt: an insane length field
	// is wire damage until proven otherwise.
	ErrFrameTooBig = fmt.Errorf("%w: wire frame exceeds payload limit", rma.ErrCorrupt)
	// ErrShutdown reports an operation refused because the server is
	// draining. Matches rma.ErrTransient: a redial may reach a healthy
	// (restarted or failed-over) server.
	ErrShutdown = fmt.Errorf("%w: server shutting down", rma.ErrTransient)
)

// castagnoli is the CRC32C table; crc32.Update on it uses the CPU's CRC
// instructions where present.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// beginFrame starts a frame at the end of buf: the header with a zero
// payload length, which sealFrame patches. The caller appends the
// payload between the two.
func beginFrame(buf []byte, op byte, seq uint64) []byte {
	buf = append(buf, magic0, magic1, Version, op)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	return append(buf, 0, 0, 0, 0)
}

// sealFrame completes the frame that beginFrame started at buf[start]:
// it writes the payload length into the header and appends the CRC of
// header and payload. The payload ends in tail, bytes kept out of buf
// (nil for none): the frame is then buf[start:len(buf)-checksumSize],
// tail, and the CRC, which is chained over both.
func sealFrame(buf []byte, start int, tail []byte) []byte {
	binary.LittleEndian.PutUint32(buf[start+12:], uint32(len(buf)-start-headerSize+len(tail)))
	sum := crc32.Update(crc32.Update(0, castagnoli, buf[start:]), castagnoli, tail)
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// AppendFrame appends one complete frame (header, payload, checksum) to
// buf and returns the extended slice. It never fails: length limits are
// enforced at decode time and by callers that split oversized batches.
func AppendFrame(buf []byte, op byte, seq uint64, payload []byte) []byte {
	start := len(buf)
	return sealFrame(append(beginFrame(buf, op, seq), payload...), start, nil)
}

// Frame is one decoded frame.
type Frame struct {
	Op      byte
	Seq     uint64
	Payload []byte // aliases the decode buffer; copy to retain
}

// parseHeader validates the fixed header at the start of h (at least
// headerSize bytes) and returns the payload length it declares. It is
// the one place magic, version and length limit are checked.
func parseHeader(h []byte, maxPayload int) (int, error) {
	if h[0] != magic0 || h[1] != magic1 {
		return 0, fmt.Errorf("%w: bad magic 0x%02x%02x", ErrProto, h[0], h[1])
	}
	if h[2] != Version {
		return 0, fmt.Errorf("%w: version %d (want %d)", ErrProto, h[2], Version)
	}
	n := int(binary.LittleEndian.Uint32(h[12:16]))
	if n > maxPayload {
		return 0, fmt.Errorf("%w: payload %d > limit %d", ErrFrameTooBig, n, maxPayload)
	}
	return n, nil
}

// DecodeFrame parses one complete frame from b, returning the frame and
// the number of bytes consumed. Structural damage (magic, version,
// length) is ErrProto; a checksum mismatch is ErrChecksum; a short
// buffer is io.ErrUnexpectedEOF wrapped in rma.ErrTransient (the caller
// may have more bytes in flight). Decode failures never panic — the
// fuzz target FuzzWireFrame holds it to that.
func DecodeFrame(b []byte, maxPayload int) (Frame, int, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if len(b) < headerSize {
		return Frame{}, 0, fmt.Errorf("%w: short frame header: %w", rma.ErrTransient, io.ErrUnexpectedEOF)
	}
	n, err := parseHeader(b, maxPayload)
	if err != nil {
		return Frame{}, 0, err
	}
	total := headerSize + n + checksumSize
	if len(b) < total {
		return Frame{}, 0, fmt.Errorf("%w: truncated frame: %w", rma.ErrTransient, io.ErrUnexpectedEOF)
	}
	want := binary.LittleEndian.Uint32(b[headerSize+n : total])
	if got := crc32.Update(0, castagnoli, b[:headerSize+n]); got != want {
		return Frame{}, 0, fmt.Errorf("%w: got %08x want %08x", ErrChecksum, got, want)
	}
	return Frame{
		Op:      b[3],
		Seq:     binary.LittleEndian.Uint64(b[4:12]),
		Payload: b[headerSize : headerSize+n],
	}, total, nil
}

// frameReader parses frames out of a buffered stream. It reads whatever
// the socket holds into buf — often a whole small frame, sometimes
// several pushed ones — so a frame costs at most one read beyond those
// its size forces, and a large payload is read straight into the place
// its Frame.Payload aliases. Not safe for concurrent use; each
// connection owns one.
type frameReader struct {
	r          io.Reader
	buf        []byte // buf[lo:hi] holds bytes read but not yet parsed
	lo, hi     int
	maxPayload int
	// tap, when set, observes (and may mutate) every raw inbound frame
	// before checksum verification — the chaos hook that turns injected
	// bit flips into genuine on-the-wire corruption.
	tap func(frame []byte)
}

func newFrameReader(r io.Reader, maxPayload int) *frameReader {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	return &frameReader{r: r, buf: make([]byte, frameBufMin), maxPayload: maxPayload}
}

// trim resets a reader with no unparsed bytes: the next read starts at
// the front of the buffer, and a buffer that was allocated for an
// oversized frame (sized to it, so nothing else is in it) is dropped for
// a small one. It invalidates the payload of the last frame returned by
// next.
func (fr *frameReader) trim() {
	if fr.lo != fr.hi {
		return
	}
	fr.lo, fr.hi = 0, 0
	if len(fr.buf) > frameBufKeep {
		fr.buf = make([]byte, frameBufMin)
	}
}

// fill reads until at least need unparsed bytes are buffered, first
// making room for them: leftovers move to the front, and a frame larger
// than the buffer gets a new one (doubling up to frameBufKeep, exact
// above it).
func (fr *frameReader) fill(need int) error {
	if fr.hi-fr.lo >= need {
		return nil
	}
	if fr.lo+need > len(fr.buf) {
		dst := fr.buf
		if need > len(dst) {
			dst = make([]byte, max(need, min(2*len(dst), frameBufKeep)))
		}
		fr.lo, fr.hi = 0, copy(dst, fr.buf[fr.lo:fr.hi])
		fr.buf = dst
	}
	n, err := io.ReadAtLeast(fr.r, fr.buf[fr.hi:], need-(fr.hi-fr.lo))
	fr.hi += n
	return err
}

// next returns the next frame of the stream. Its payload aliases the
// reader's buffer and is valid until the next call of next or trim. IO
// failures are returned as-is (the caller classifies them); structural
// failures carry the DecodeFrame sentinels.
func (fr *frameReader) next() (Frame, error) {
	fr.trim()
	if err := fr.fill(headerSize); err != nil {
		return Frame{}, err
	}
	n, err := parseHeader(fr.buf[fr.lo:], fr.maxPayload)
	if err != nil {
		return Frame{}, err
	}
	total := headerSize + n + checksumSize
	if err := fr.fill(total); err != nil {
		return Frame{}, err
	}
	full := fr.buf[fr.lo : fr.lo+total]
	fr.lo += total
	if fr.tap != nil {
		fr.tap(full)
	}
	f, _, err := DecodeFrame(full, fr.maxPayload)
	return f, err
}

// ---------------------------------------------------------------------------
// Payload encodings
// ---------------------------------------------------------------------------
//
// Payloads are flat little-endian records; variable-length tails (window
// names, data bytes) always come last so decoding is a single pass with
// bounds checks. Every decoder returns ErrProto on a short or oversized
// payload rather than panicking.

// helloPayload is the OpHello request body.
type helloPayload struct {
	Rank   int32
	World  int32
	Window string
}

func appendHello(buf []byte, h helloPayload) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Rank))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.World))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(h.Window)))
	return append(buf, h.Window...)
}

func decodeHello(p []byte) (helloPayload, error) {
	if len(p) < 10 {
		return helloPayload{}, fmt.Errorf("%w: hello payload %dB", ErrProto, len(p))
	}
	n := int(binary.LittleEndian.Uint16(p[8:10]))
	if len(p) != 10+n {
		return helloPayload{}, fmt.Errorf("%w: hello name length %d vs payload %dB", ErrProto, n, len(p))
	}
	return helloPayload{
		Rank:   int32(binary.LittleEndian.Uint32(p[0:4])),
		World:  int32(binary.LittleEndian.Uint32(p[4:8])),
		Window: string(p[10 : 10+n]),
	}, nil
}

// welcomePayload is the OpWelcome response body: the rank the server
// granted and the byte size of every region of the window.
type welcomePayload struct {
	Rank    int32
	Regions []int64
}

func appendWelcome(buf []byte, w welcomePayload) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(w.Rank))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.Regions)))
	for _, sz := range w.Regions {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sz))
	}
	return buf
}

func decodeWelcome(p []byte) (welcomePayload, error) {
	if len(p) < 8 {
		return welcomePayload{}, fmt.Errorf("%w: welcome payload %dB", ErrProto, len(p))
	}
	n := int(binary.LittleEndian.Uint32(p[4:8]))
	if n < 0 || len(p) != 8+8*n {
		return welcomePayload{}, fmt.Errorf("%w: welcome regions %d vs payload %dB", ErrProto, n, len(p))
	}
	w := welcomePayload{Rank: int32(binary.LittleEndian.Uint32(p[0:4])), Regions: make([]int64, n)}
	for i := 0; i < n; i++ {
		w.Regions[i] = int64(binary.LittleEndian.Uint64(p[8+8*i:]))
	}
	return w, nil
}

// rangeReq is the body shared by OpGet and OpChecksum: one contiguous
// byte range of one target region.
type rangeReq struct {
	Target int32
	Disp   int64
	Size   int64
}

const rangeReqSize = 20

func appendRange(buf []byte, r rangeReq) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Target))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Disp))
	return binary.LittleEndian.AppendUint64(buf, uint64(r.Size))
}

func decodeRangeAt(p []byte) rangeReq {
	return rangeReq{
		Target: int32(binary.LittleEndian.Uint32(p[0:4])),
		Disp:   int64(binary.LittleEndian.Uint64(p[4:12])),
		Size:   int64(binary.LittleEndian.Uint64(p[12:20])),
	}
}

func decodeRange(p []byte) (rangeReq, error) {
	if len(p) != rangeReqSize {
		return rangeReq{}, fmt.Errorf("%w: range payload %dB", ErrProto, len(p))
	}
	return decodeRangeAt(p), nil
}

// putReq is the OpPut body: the target range header followed by the data.
type putReq struct {
	Target int32
	Disp   int64
	Data   []byte
}

func appendPut(buf []byte, r putReq) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Target))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Disp))
	return append(buf, r.Data...)
}

func decodePut(p []byte) (putReq, error) {
	if len(p) < 12 {
		return putReq{}, fmt.Errorf("%w: put payload %dB", ErrProto, len(p))
	}
	return putReq{
		Target: int32(binary.LittleEndian.Uint32(p[0:4])),
		Disp:   int64(binary.LittleEndian.Uint64(p[4:12])),
		Data:   p[12:],
	}, nil
}

// putNotifyReq is the OpPutNotify body: a put plus the notification tag.
// The origin span length is len(Data); the server derives the descriptor
// from the request, so the frame carries no redundant fields.
type putNotifyReq struct {
	Target int32
	Disp   int64
	Tag    uint32
	Data   []byte
}

func appendPutNotify(buf []byte, r putNotifyReq) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Target))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Disp))
	buf = binary.LittleEndian.AppendUint32(buf, r.Tag)
	return append(buf, r.Data...)
}

func decodePutNotify(p []byte) (putNotifyReq, error) {
	if len(p) < 16 {
		return putNotifyReq{}, fmt.Errorf("%w: put_notify payload %dB", ErrProto, len(p))
	}
	return putNotifyReq{
		Target: int32(binary.LittleEndian.Uint32(p[0:4])),
		Disp:   int64(binary.LittleEndian.Uint64(p[4:12])),
		Tag:    binary.LittleEndian.Uint32(p[12:16]),
		Data:   p[16:],
	}, nil
}

// notifyPayload is the OpNotify push body: the descriptor of one remote
// PutNotify. HasData distinguishes "no bytes attached" (readers must
// invalidate the span) from a genuine zero-length write.
type notifyPayload struct {
	Origin  int32
	Target  int32
	Disp    int64
	Len     int64
	Tag     uint32
	HasData bool
	Data    []byte
}

func appendNotify(buf []byte, n notifyPayload) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.Origin))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.Target))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n.Disp))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n.Len))
	buf = binary.LittleEndian.AppendUint32(buf, n.Tag)
	if n.HasData {
		buf = append(buf, 1)
		return append(buf, n.Data...)
	}
	return append(buf, 0)
}

func decodeNotify(p []byte) (notifyPayload, error) {
	if len(p) < 29 {
		return notifyPayload{}, fmt.Errorf("%w: notify payload %dB", ErrProto, len(p))
	}
	n := notifyPayload{
		Origin:  int32(binary.LittleEndian.Uint32(p[0:4])),
		Target:  int32(binary.LittleEndian.Uint32(p[4:8])),
		Disp:    int64(binary.LittleEndian.Uint64(p[8:16])),
		Len:     int64(binary.LittleEndian.Uint64(p[16:24])),
		Tag:     binary.LittleEndian.Uint32(p[24:28]),
		HasData: p[28] == 1,
	}
	switch {
	case p[28] == 1:
		n.Data = p[29:]
	case p[28] == 0:
		if len(p) != 29 {
			return notifyPayload{}, fmt.Errorf("%w: notify trailing bytes without data flag", ErrProto)
		}
	default:
		return notifyPayload{}, fmt.Errorf("%w: notify data flag 0x%02x", ErrProto, p[28])
	}
	return n, nil
}

// Accumulate element kinds: the primitive arithmetic datatypes the
// accumulate op set supports (mirroring internal/mpi).
const (
	accInt32 byte = iota
	accInt64
	accFloat64
)

// accDatatypes maps each element kind to its datatype: the client
// encodes through it, the server hands the datatype to rma.Memory.Accumulate.
var accDatatypes = [...]datatype.Datatype{
	accInt32:   datatype.Int32,
	accInt64:   datatype.Int64,
	accFloat64: datatype.Double,
}

// accReq is the OpAccumulate body.
type accReq struct {
	Target int32
	Disp   int64
	Op     byte // rma.Op
	Kind   byte // accInt32/accInt64/accFloat64
	Data   []byte
}

func appendAcc(buf []byte, r accReq) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Target))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Disp))
	buf = append(buf, r.Op, r.Kind)
	return append(buf, r.Data...)
}

func decodeAcc(p []byte) (accReq, error) {
	if len(p) < 14 {
		return accReq{}, fmt.Errorf("%w: accumulate payload %dB", ErrProto, len(p))
	}
	return accReq{
		Target: int32(binary.LittleEndian.Uint32(p[0:4])),
		Disp:   int64(binary.LittleEndian.Uint64(p[4:12])),
		Op:     p[12],
		Kind:   p[13],
		Data:   p[14:],
	}, nil
}

// appendBatch encodes an OpGetBatch body: op count then one rangeReq per
// op that moves bytes; zero-byte ops are left out. The response is the
// concatenated payloads in request order.
func appendBatch(buf []byte, ops []rma.GetOp) []byte {
	at := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	n := 0
	for i := range ops {
		if len(ops[i].Dst) == 0 {
			continue
		}
		buf = appendRange(buf, rangeReq{Target: int32(ops[i].Target), Disp: int64(ops[i].Disp), Size: int64(len(ops[i].Dst))})
		n++
	}
	binary.LittleEndian.PutUint32(buf[at:], uint32(n))
	return buf
}

// decodeBatch checks an OpGetBatch body's shape and returns its op
// count; batchRange reads the descriptors where they lie.
func decodeBatch(p []byte) (int, error) {
	if len(p) < 4 {
		return 0, fmt.Errorf("%w: batch payload %dB", ErrProto, len(p))
	}
	n := int(binary.LittleEndian.Uint32(p[0:4]))
	if n < 0 || len(p) != 4+n*rangeReqSize {
		return 0, fmt.Errorf("%w: batch count %d vs payload %dB", ErrProto, n, len(p))
	}
	return n, nil
}

// batchRange returns descriptor i of a body decodeBatch accepted.
func batchRange(p []byte, i int) rangeReq { return decodeRangeAt(p[4+i*rangeReqSize:]) }

// lockReq is the OpLock/OpUnlock body.
type lockReq struct {
	Target int32
	Type   byte // rma.LockType
}

func appendLock(buf []byte, r lockReq) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Target))
	return append(buf, r.Type)
}

func decodeLock(p []byte) (lockReq, error) {
	if len(p) != 5 {
		return lockReq{}, fmt.Errorf("%w: lock payload %dB", ErrProto, len(p))
	}
	return lockReq{Target: int32(binary.LittleEndian.Uint32(p[0:4])), Type: p[4]}, nil
}

// appendError encodes an OpError body: code then message text.
func appendError(buf []byte, code uint16, msg string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, code)
	return append(buf, msg...)
}

func decodeError(p []byte) (uint16, string, error) {
	if len(p) < 2 {
		return 0, "", fmt.Errorf("%w: error payload %dB", ErrProto, len(p))
	}
	return binary.LittleEndian.Uint16(p[0:2]), string(p[2:]), nil
}

// errorFromFrame turns an OpError payload into the error it reports.
func errorFromFrame(p []byte) error {
	code, msg, err := decodeError(p)
	if err != nil {
		return err
	}
	return codeToError(code, msg)
}

// codeToError maps an OpError code back onto the rma sentinel family, so
// errors.Is behaves identically over the wire and over the simulated
// backend. Unknown codes degrade to a transient error: the safe default
// for a protocol-version skew is "retry, maybe against a newer server".
func codeToError(code uint16, msg string) error {
	switch code {
	case CodeRankRange:
		return rewrap(rma.ErrRankRange, msg)
	case CodeBounds:
		return rewrap(rma.ErrBounds, msg)
	case CodeBadAcc:
		return rewrap(ErrBadAccumulate, msg)
	case CodeProto:
		return rewrap(ErrProto, msg)
	case CodeBadWindow:
		return rewrap(ErrBadWindow, msg)
	case CodeBadWorld:
		return rewrap(ErrBadWorld, msg)
	case CodeShutdown:
		return rewrap(ErrShutdown, msg)
	default:
		return fmt.Errorf("%w: server error: %s", rma.ErrTransient, msg)
	}
}

// rewrap attaches a sentinel to a server-reported message. The message
// is usually err.Error() of the same wrapped sentinel, so it already
// starts with the sentinel's own text — don't stamp it twice.
func rewrap(sentinel error, msg string) error {
	if rest, ok := strings.CutPrefix(msg, sentinel.Error()); ok {
		return fmt.Errorf("%w%s", sentinel, rest)
	}
	return fmt.Errorf("%w: %s", sentinel, msg)
}

// errorToCode classifies a server-side failure into an OpError code.
func errorToCode(err error) uint16 {
	switch {
	case errors.Is(err, rma.ErrRankRange):
		return CodeRankRange
	case errors.Is(err, rma.ErrBounds):
		return CodeBounds
	case errors.Is(err, ErrBadAccumulate):
		return CodeBadAcc
	case errors.Is(err, ErrBadWindow):
		return CodeBadWindow
	case errors.Is(err, ErrBadWorld):
		return CodeBadWorld
	case errors.Is(err, ErrShutdown):
		return CodeShutdown
	case errors.Is(err, ErrProto):
		return CodeProto
	default:
		return CodeInternal
	}
}

// Server-side misuse sentinels surfaced through OpError frames.
var (
	// ErrBadAccumulate reports an unsupported accumulate datatype/op.
	ErrBadAccumulate = errors.New("wire: accumulate requires a primitive arithmetic datatype")
	// ErrBadWindow reports a Hello naming an unknown window.
	ErrBadWindow = errors.New("wire: unknown window name")
	// ErrBadWorld reports an inconsistent rank/world declaration.
	ErrBadWorld = errors.New("wire: inconsistent world declaration")
)
