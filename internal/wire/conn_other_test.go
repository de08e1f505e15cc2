//go:build !linux

package wire

import "net"

func openAdopted() int { return 0 }

// ioMode has nothing to tell apart off Linux, where every connection
// waits in the netpoller: "" matches any mode a test wants.
func ioMode(net.Conn) string { return "" }
