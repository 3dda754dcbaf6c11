package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is a child process the benchmark started and must stop: the daemon
// under test or the echo reference.
type proc struct {
	cmd  *exec.Cmd
	addr string // host:port it listens on
	log  *os.File
	done chan struct{} // closed once the process has been waited for
}

// startProc launches bin with args, sending its output to logPath. The
// child is killed if the benchmark dies first.
func startProc(logPath, addr, bin string, args ...string) (*proc, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, addr: addr, log: log, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the only expected end is stop's kill, a non-zero status
		close(p.done)
	}()
	return p, nil
}

// stop kills the process and waits until it has ended. Neither child
// holds state worth a graceful shutdown.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.done
	p.log.Close()
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// waitHealthy polls GET /healthz until it answers 200, the process exits,
// or the timeout passes.
func (p *proc) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + p.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming healthy (see %s)", filepath.Base(p.cmd.Path), p.log.Name())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not healthy on %s after %v (see %s)", filepath.Base(p.cmd.Path), p.addr, timeout, p.log.Name())
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// cpuSeconds returns the CPU time the process has used so far, summed over
// its threads. It prefers the scheduler's nanosecond accounting and falls
// back to the 10 ms ticks of /proc/<pid>/stat.
func (p *proc) cpuSeconds() (float64, error) {
	pid := strconv.Itoa(p.pid())
	if ns := schedstatNS(pid); ns > 0 {
		return float64(ns) / 1e9, nil
	}
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatTicks(string(b))
	if err != nil {
		return 0, err
	}
	return float64(ticks) / clockTicksPerSecond, nil
}

// schedstatNS sums the on-CPU nanoseconds of the process's threads, or
// returns 0 where the kernel does not keep them.
func schedstatNS(pid string) int64 {
	tasks, _ := filepath.Glob("/proc/" + pid + "/task/*/schedstat") // the pattern is well-formed
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // a thread that exited between the glob and the read
		}
		ns, err := parseSchedstat(string(b))
		if err != nil {
			return 0
		}
		total += ns
	}
	return total
}

// clockTicksPerSecond is USER_HZ, which Linux fixes at 100 on every
// architecture Go supports.
const clockTicksPerSecond = 100

// parseSchedstat returns the first field of a schedstat line: nanoseconds
// spent on a CPU.
func parseSchedstat(s string) (int64, error) {
	f := strings.Fields(s)
	if len(f) < 1 {
		return 0, errors.New("schedstat: empty")
	}
	return strconv.ParseInt(f[0], 10, 64)
}

// parseStatTicks returns utime+stime (fields 14 and 15) of a
// /proc/<pid>/stat line. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatTicks(s string) (int64, error) {
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("stat: no command field")
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: stime: %w", err)
	}
	return ut + st, nil
}

// peakRSSMB returns the process's resident-set high-water mark.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(p.pid()) + "/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// parseVmHWM extracts "VmHWM:   12345 kB" from a /proc/<pid>/status text.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("status: unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("status: no VmHWM line")
}
