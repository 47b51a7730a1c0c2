package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// Keeping the CPUs out of idle.
//
// On a virtual machine a halted vCPU is woken by the host scheduler, and
// on a shared host that wake-up can take milliseconds. A request/response
// benchmark halts and wakes its vCPUs thousands of times a second, so
// without care its latencies measure the host's scheduling delay (seen as
// steal time in /proc/stat: 0.3–3.5 s per 10 s window on a 2-vCPU guest)
// rather than the program. The benchmark therefore runs one spinner
// process per CPU under SCHED_IDLE for its whole life: the guest kernel
// runs a spinner only when nothing else is runnable and preempts it the
// moment anything wakes, so the vCPUs never halt and the program's
// threads never wait on the host to be rescheduled.

// schedIdle is Linux's SCHED_IDLE policy.
const schedIdle = 5

// spinnerEnv, set in a child's environment, makes the child a spinner.
const spinnerEnv = "PERFBENCH_SPINNER"

// runSpinner is the spinner child's whole life; it never returns.
func runSpinner() {
	if err := spin(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench spinner:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// startSpinners starts one idle-priority spinner per CPU by re-executing
// this binary with spinnerEnv set. stop kills them and waits for each to
// exit.
func startSpinners() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var cmds []*exec.Cmd
	stop = func() {
		for _, c := range cmds {
			_ = c.Process.Kill() // already exited is fine: Wait reaps it
			_ = c.Wait()         // killed, so the error is always the kill
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		c := exec.Command(exe)
		c.Env = append(os.Environ(), spinnerEnv+"=1", "GOMAXPROCS=1")
		// Die with the benchmark even if it is killed before stop runs.
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			stop()
			return nil, fmt.Errorf("start spinner: %w", err)
		}
		cmds = append(cmds, c)
	}
	return stop, nil
}

// spin is the spinner process's body: switch this thread to SCHED_IDLE
// and burn cycles until the parent goes away.
func spin() error {
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return fmt.Errorf("sched_setscheduler: %w", errno)
	}
	parent := os.Getppid()
	for i := 0; ; i++ {
		if i&(1<<22-1) == 0 && os.Getppid() != parent {
			return nil
		}
	}
}
