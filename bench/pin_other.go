//go:build !linux

package main

// pinToOneCPU has no portable form; elsewhere the benchmark runs with
// GOMAXPROCS 1 and leaves the threads where the system puts them.
func pinToOneCPU() (int, error) { return -1, nil }
