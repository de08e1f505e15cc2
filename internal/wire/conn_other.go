//go:build !linux

package wire

import "net"

// blocking is the identity off Linux: connections keep waiting in the
// netpoller (the blocking-read model is conn_linux.go).
func blocking(c net.Conn) net.Conn { return c }
