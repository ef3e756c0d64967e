package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Keeping the CPUs awake. On a virtual machine an idle vCPU is halted, and
// waking it is the hypervisor's business: on the calibration box a 1 ms
// time.Sleep took 1.14 ms at the median but 1.5–1.8 ms at the 90th percentile,
// and that jitter — not the program — was most of the run-to-run spread of the
// two delay-pinned workloads, whose every round waits on such a timer. So for
// the length of a run the driver keeps one busy loop per CPU running under
// SCHED_IDLE, the scheduling class that only ever gets a CPU nothing else
// wants and is preempted the moment anything does: the servers lose no CPU
// time to it, but no vCPU halts (with the loops running the same sleep took
// 1.09 ms at the median and 1.11 ms at the 90th percentile). It is the
// virtual-machine form of booting a benchmark host with idle=poll, and it is
// the same on both sides of every comparison.

// spinEnv makes a copy of this binary a busy loop instead of a benchmark.
const spinEnv = "SSS_BENCHMARK_SPIN"

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// spin never returns: it moves the calling thread to SCHED_IDLE and loops
// until the process that started it is gone. It refuses to spin at normal
// priority, where it would take CPU time from the servers.
func spin() {
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintf(os.Stderr, "idle spinner: sched_setscheduler(SCHED_IDLE): %v\n", errno)
		os.Exit(1)
	}
	parent := os.Getppid()
	for os.Getppid() == parent {
		for i := 0; i < 1<<26; i++ { // a few tens of milliseconds between looks at the parent
		}
	}
	os.Exit(0)
}

// startSpinners starts one spinner per CPU and returns those that stayed up.
// Where SCHED_IDLE is not to be had the run goes on without them and says so
// (env.idle_spinners = 0).
func startSpinners() []*exec.Cmd {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "idle spinners off: %v\n", err)
		return nil
	}
	var cmds []*exec.Cmd
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), spinEnv+"=1", "GOMAXPROCS=1")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "idle spinners off: %v\n", err)
			break
		}
		cmds = append(cmds, cmd)
	}
	time.Sleep(50 * time.Millisecond) // long enough for a refused sched_setscheduler to have exited
	return cmds
}

// spinnersAlive counts the spinners still running (not yet reaped counts as
// gone).
func spinnersAlive(cmds []*exec.Cmd) int {
	n := 0
	for _, cmd := range cmds {
		if st, err := readProcStat(cmd.Process.Pid); err == nil && st.state != 'Z' {
			n++
		}
	}
	return n
}

func stopSpinners(cmds []*exec.Cmd) {
	for _, cmd := range cmds {
		_ = cmd.Process.Kill() // already gone is fine
		_ = cmd.Wait()         // reaps it; the exit status of a killed loop says nothing
	}
}
