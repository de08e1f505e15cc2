//go:build linux

package wire

// The I/O model of an established connection on Linux (DESIGN.md §13.6):
// while the process has no more connections open than GOMAXPROCS, a
// connection waits for its next frame in a blocking read(2), inside the
// runtime's ordinary syscall bracket, instead of reading EAGAIN, parking
// in the netpoller and being woken through epoll_wait and the scheduler
// — on loopback that wake-up was half of a 64 B round trip. Beyond that
// count every connection waits in the netpoller: a goroutine blocked in
// read(2) keeps its P until sysmon takes it back, and another goroutine
// woken meanwhile waits for that, so blocked readers must not outnumber
// the Ps, and the threads they pin stay at GOMAXPROCS. Listen, Accept
// and Dial keep the netpoller.
//
// Every standard-library function called here is one the binary links
// anyway (RawConn.Read, SetNonblock, Syscall, GOMAXPROCS, errors.Join,
// the net.Conn's Write and SetDeadline) or one that inlines into a call
// of such a one (Read, SetsockoptTimeval, NsecToTimeval): a new one
// moves the text of math/rand behind it, and the benchmark's set-up
// measures its alignment (scripts/textlayout.sh).

import (
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// adopted counts the converted connections open in the process, client
// and server ends alike: the Ps they compete for are the process's.
var adopted atomic.Int64

// blockingConn is a socket that reads through its RawConn, so the
// descriptor stays referenced while read(2) blocks, and that clears
// O_NONBLOCK for a read while adopted is at most procs and sets it again
// otherwise. Writes stay on the net.Conn's Write, which on a blocking
// descriptor finishes in write(2) without parking and on a non-blocking
// one waits in the netpoller. One goroutine reads at a time, and only the
// goroutine that owns the connection arms a deadline (the server, whose
// connections other goroutines write into, never does).
type blockingConn struct {
	net.Conn
	rc    syscall.RawConn
	fd    int   // for setsockopt and shutdown outside a read
	procs int64 // GOMAXPROCS when the connection was born

	deadline time.Time // zero while none is armed

	// The read in flight. readFd is the read method bound once, so a read
	// allocates nothing. blocks is the descriptor's mode: O_NONBLOCK clear.
	readFd func(fd uintptr) bool
	rp     []byte
	rn     int
	rerr   error
	blocks bool

	shut sync.Once
}

// blocking converts an established socket to the model above. A
// connection it cannot convert is returned as it is and keeps the
// netpoller.
func blocking(c net.Conn) net.Conn {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return c
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return c
	}
	fd := -1
	if err := rc.Read(func(s uintptr) bool { fd = int(s); return true }); err != nil {
		return c
	}
	adopted.Add(1)
	b := &blockingConn{Conn: c, rc: rc, fd: fd, procs: int64(runtime.GOMAXPROCS(0))}
	b.readFd = b.read
	return b
}

// Read is one read(2), or one wait in the netpoller and the read(2) it
// leads to. EOF, and the armed deadline running out, surface as they do
// from a net.Conn: io.EOF, and a net.Error whose Timeout() is true.
func (b *blockingConn) Read(p []byte) (int, error) {
	b.rp = p
	err := b.rc.Read(b.readFd)
	b.rp = nil // an idle connection must not pin a buffer its reader dropped
	n, rerr := b.rn, b.rerr
	switch {
	case err != nil:
		return 0, err // closed, or the netpoller's deadline passed
	case rerr == syscall.EAGAIN:
		return 0, os.ErrDeadlineExceeded // SO_RCVTIMEO ran out
	case rerr != nil:
		return 0, rerr
	case n == 0 && len(p) > 0:
		return 0, io.EOF
	}
	return n, nil
}

// read runs under the RawConn's read lock. It first puts the descriptor
// in the mode the connection count asks for; the switch costs two fcntl
// calls, and only when the count crosses procs. A blocking read with a
// deadline armed sets SO_RCVTIMEO to the time left first; once none is
// left, the read times out without a syscall, as a zero timeout would
// mean none. A signal interrupts a read with a socket timeout instead of
// restarting it, so EINTR goes round again with the time then left. A
// non-blocking read that finds nothing returns false, and the RawConn
// waits in the netpoller, under its own deadline, before calling again.
func (b *blockingConn) read(fd uintptr) bool {
	block := adopted.Load() <= b.procs
	if block != b.blocks {
		if b.rerr = syscall.SetNonblock(int(fd), !block); b.rerr != nil {
			return true
		}
		b.blocks = block
	}
	for {
		if block && !b.deadline.IsZero() {
			left := b.deadline.Sub(time.Now()) //clampi:walltime socket timeouts carry the per-exchange wall deadline
			if left <= 0 {
				b.rerr = os.ErrDeadlineExceeded
				return true
			}
			if b.rerr = setTimeout(int(fd), syscall.SO_RCVTIMEO, left); b.rerr != nil {
				return true
			}
		}
		b.rn, b.rerr = syscall.Read(int(fd), b.rp)
		switch {
		case b.rerr == syscall.EINTR:
		case b.rerr == syscall.EAGAIN && !block:
			return false
		default:
			return true
		}
	}
}

// SetDeadline arms t for every read and write after it; the zero time
// disarms, clearing the socket timeouts once. The netpoller deadline is
// set whatever a setsockopt returned: it bounds a non-blocking read or
// write, and fails one that starts late.
//
// A blocking read gets SO_RCVTIMEO set to the time left before each
// read(2). A write gets the shortest SO_SNDTIMEO, once: net.Conn.Write
// issues write(2) again after a partial one with the same relative
// timeout, so the time left would let a peer that stopped reading hold
// the write for twice the deadline. With one tick, a full socket buffer
// returns the write to the netpoller, which waits for room under the
// absolute deadline, as it did before the descriptor blocked.
func (b *blockingConn) SetDeadline(t time.Time) error {
	var err error
	switch {
	case !t.IsZero() && b.deadline.IsZero():
		err = setTimeout(b.fd, syscall.SO_SNDTIMEO, time.Microsecond)
	case t.IsZero() && !b.deadline.IsZero():
		err = errors.Join(setTimeout(b.fd, syscall.SO_RCVTIMEO, 0), setTimeout(b.fd, syscall.SO_SNDTIMEO, 0))
	}
	b.deadline = t
	return errors.Join(err, b.Conn.SetDeadline(t))
}

// Close shuts the socket down before closing it: close(2) does not wake
// a read(2) blocked on the descriptor, and net.Conn.Close waits for that
// read to return. The Once keeps a second Close from shutting down a
// descriptor number the first one freed, and from counting the
// connection out twice. A failed shutdown leaves the close to report the
// error.
func (b *blockingConn) Close() error {
	b.shut.Do(func() {
		adopted.Add(-1)
		syscall.Syscall(syscall.SYS_SHUTDOWN, uintptr(b.fd), syscall.SHUT_RDWR, 0)
	})
	return b.Conn.Close()
}

// setTimeout sets the socket timeout opt to d, rounded up to the next
// microsecond; zero clears it.
func setTimeout(fd, opt int, d time.Duration) error {
	tv := syscall.NsecToTimeval(d.Nanoseconds())
	return syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, opt, &tv)
}
