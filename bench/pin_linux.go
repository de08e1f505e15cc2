package main

import (
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU binds every thread of the process — and so every thread
// and child it starts later, which inherit the binding — to the
// highest-numbered CPU the process may run on, and returns that CPU.
//
// The benchmark runs on one CPU because on a small VM a wake-up that
// crosses vCPUs goes through the hypervisor: its cost swings by a factor
// of two over minutes and says nothing about the program. On one CPU a
// blocked caller hands over by a context switch, and what a run times is
// the work along the path.
func pinToOneCPU() (int, error) {
	var mask [16]uint64 // 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return 0, e
	}
	cpu := 0
	for i, word := range mask {
		if word != 0 {
			cpu = i*64 + bits.Len64(word) - 1
		}
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	// The runtime has started threads already, and the call binds one
	// thread. A thread that a not yet bound one starts meanwhile shows up
	// in the next listing; a bound one only starts bound ones.
	for bound := map[int]bool{}; ; {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		before := len(bound)
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || bound[tid] {
				continue
			}
			// ESRCH: the thread ended since the listing.
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 && e != syscall.ESRCH {
				return 0, e
			}
			bound[tid] = true
		}
		if len(bound) == before {
			return cpu, nil
		}
	}
}
