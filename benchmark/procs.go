package main

import (
	"bytes"
	"fmt"
	"io"
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

// proc is one child daemon of the system under test.
type proc struct {
	name string // "giantd" or "giantrouter": the layer its CPU and RSS are billed to
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returned
}

// fleet owns every child process of a run. stop is idempotent and is
// called on every exit path (defer, fatal error, signal), so a run never
// leaves a daemon behind.
type fleet struct {
	binDir string
	tmpDir string
	procs  []*proc
	// err is the first failure to read a child's /proc entry. The CPU and
	// RSS readers return 0 after one and runWorkload fails the run, so the
	// many sampling points need no error plumbing of their own.
	err error
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; the window is harmless on a box whose
// only other network user is this benchmark.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start launches binDir/<name> with args plus an ephemeral -addr, and
// returns without waiting for it to listen (see waitHealthy). It must be
// called from the main goroutine: Pdeathsig is tied to the spawning OS
// thread, which main.go pins for the life of the process.
func (f *fleet) start(name string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(f.tmpDir, fmt.Sprintf("%s-%d.log", name, port)))
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	cmd := exec.Command(filepath.Join(f.binDir, name), append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Belt and braces for a harness that is SIGKILLed: the kernel then
	// kills the children too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait() // exit status is irrelevant: stop() kills, waitHealthy reports early deaths
		close(p.done)
	}()
	f.procs = append(f.procs, p)
	return p, nil
}

// waitHealthy polls /healthz every 2 ms until it answers 200, the child
// dies, or a minute passes.
func (p *proc) waitHealthy(client *http.Client) error {
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming healthy:\n%s", p.name, p.tailLog())
		default:
		}
		resp, err := client.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after 1m:\n%s", p.name, p.tailLog())
}

func (p *proc) tailLog() string {
	data, err := os.ReadFile(p.log.Name())
	if err != nil {
		return err.Error()
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// stop terminates every child (SIGTERM, then SIGKILL after 5 s) and waits
// until each has been reaped.
func (f *fleet) stop() {
	for _, p := range f.procs {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range f.procs {
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
		p.log.Close()
	}
	f.procs = nil
}

// clockTicksPerSecond is USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux ABI Go supports.
const clockTicksPerSecond = 100

// cpuMs returns the user+sys CPU time the process (all threads, living
// and dead) has used so far, from /proc/<pid>/stat.
func (p *proc) cpuMs() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("cpu of %s: %w", p.name, err)
	}
	return parseStatCPUMs(data)
}

// parseStatCPUMs extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPUMs(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	fields := strings.Fields(string(stat[i+1:]))
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseUint(fields[11], 10, 64)
	st, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat cpu fields")
	}
	return float64(ut+st) * 1000 / clockTicksPerSecond, nil
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("rss of %d: %w", pid, err)
	}
	return parseVmHWMMB(data)
}

func parseVmHWMMB(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024, nil
				}
			}
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// selfCPUMs is the harness's own user+sys CPU so far.
func selfCPUMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1000 + float64(t.Usec)/1000 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuMsOf sums cpuMs over the fleet's processes called name ("" = all).
func (f *fleet) cpuMsOf(name string) float64 {
	var sum float64
	for _, p := range f.procs {
		if name == "" || p.name == name {
			ms, err := p.cpuMs()
			if err != nil && f.err == nil {
				f.err = err
			}
			sum += ms
		}
	}
	return sum
}

// peakRSSMBOf sums VmHWM over the fleet's processes called name ("" = all).
func (f *fleet) peakRSSMBOf(name string) float64 {
	var sum float64
	for _, p := range f.procs {
		if name == "" || p.name == name {
			mb, err := peakRSSMB(p.cmd.Process.Pid)
			if err != nil && f.err == nil {
				f.err = err
			}
			sum += mb
		}
	}
	return sum
}
