package likelihood

import "syscall"

// osYield gives the calling thread's CPU to any other runnable thread
// (sched_yield); it returns at once when there is none.
func osYield() { syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
