//go:build linux

package wire

import (
	"net"
	"syscall"
)

func openAdopted() int { return int(adopted.Load()) }

// ioMode names where a read on c waits: "read(2)" when c was converted
// and its descriptor has O_NONBLOCK clear, "netpoller" when it was
// converted and the flag is set, and says so when c never was converted:
// a silent fallback to the netpoller would pass every other check.
func ioMode(c net.Conn) string {
	b, ok := c.(*blockingConn)
	if !ok {
		return "netpoller (unconverted)"
	}
	flags, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(b.fd), syscall.F_GETFL, 0)
	if errno != 0 || flags&syscall.O_NONBLOCK != 0 {
		return "netpoller"
	}
	return "read(2)"
}
