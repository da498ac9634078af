package main

import "syscall"

// daemonProcAttr makes the kernel kill the daemon if the benchmark dies
// before it can reap it.
func daemonProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
