package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadClock is a reading of the calling OS thread's CPU clock.
// Linux charges a thread only for time it ran: time the host took the
// virtual CPU away (steal) and time the thread waited off the CPU are
// not counted.
type threadClock struct {
	tid int
	cpu time.Duration
}

func readThreadClock() threadClock {
	tid := syscall.Gettid()
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a constant, always-supported clock
	}
	return threadClock{tid, time.Duration(ts.Nano())}
}

// processCPU returns the CPU time all of the process's threads have
// run, which, like a thread's, leaves out stolen time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// since returns the CPU time the thread has run since c, and false
// when the goroutine is now on another OS thread (the Go scheduler
// moved it), so the two readings are of different clocks.
func (c threadClock) since() (time.Duration, bool) {
	now := readThreadClock()
	if now.tid != c.tid {
		return 0, false
	}
	return now.cpu - c.cpu, true
}
