package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux clock IDs for CPU time.
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

// cpuNow returns the CPU time the process has used so far: user and
// system time of all its threads, in nanoseconds. On a KVM guest with
// paravirtual steal accounting it leaves out the time the host takes from
// the guest's vCPUs, which on a shared host swings wall times by tens of
// percent from one minute to the next.
func cpuNow() time.Duration { return clockNow(clockProcessCPUTimeID) }

// threadCPUNow returns the CPU time the calling OS thread has used so far.
func threadCPUNow() time.Duration { return clockNow(clockThreadCPUTimeID) }

func clockNow(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
