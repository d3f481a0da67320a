package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what every workload needs from the checkout it runs in.
type env struct {
	root  string    // checkout root: holds go.mod and BENCHMARK.json
	out   string    // benchmark/out: server binary, cached bundle, WAL dirs, traces
	scale string    // scaleFull or scaleSmoke
	log   io.Writer // progress lines; never the result line
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "# "+format+"\n", args...)
}

// findRoot walks up from the working directory to the checkout root.
// `go run ./benchmark` starts in the root; `go test ./benchmark` starts
// in the package directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout root (go.mod next to BENCHMARK.json) above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/rlr-serve from the checkout's sources into
// out/bin. It always invokes the go tool: the build cache makes a
// repeat nearly free, and a stale binary would silently measure the
// wrong code.
func buildServer(e *env) (string, error) {
	bin := filepath.Join(e.out, "bin", "rlr-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rlr-serve")
	cmd.Dir = e.root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build rlr-serve: %v\n%s", err, outp)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the server binds it; nothing else on a benchmark box
// races for the port in between.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// serverProc is one rlr-serve child process.
type serverProc struct {
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{}
}

const healthTimeout = 60 * time.Second

// startServer execs the server and returns once GET /healthz answers,
// so the elapsed time of the call is exec → ready, WAL replay and
// snapshot restore included.
func startServer(bin, addr, logPath string, args ...string) (*serverProc, error) {
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logFile
	cmd.Stdout = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	p := &serverProc{cmd: cmd, log: logFile, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	deadline := time.Now().Add(healthTimeout)
	for {
		if healthy(addr) {
			return p, nil
		}
		select {
		case <-p.exited:
			p.log.Close()
			return nil, fmt.Errorf("rlr-serve exited during start-up (see %s)", logPath)
		default:
		}
		if time.Now().After(deadline) {
			p.stop(syscall.SIGKILL)
			return nil, fmt.Errorf("rlr-serve not healthy after %s (see %s)", healthTimeout, logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// healthy makes one GET /healthz on a fresh connection.
func healthy(addr string) bool {
	c, err := dial(addr)
	if err != nil {
		return false
	}
	defer c.close()
	c.c.SetDeadline(time.Now().Add(time.Second))
	status, _, err := c.do("/healthz")
	return err == nil && status == 200
}

// stop signals the server and waits until the process has ended.
// SIGTERM drains and writes the final snapshot; SIGKILL is the crash.
func (p *serverProc) stop(sig syscall.Signal) {
	p.cmd.Process.Signal(sig)
	select {
	case <-p.exited:
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
	p.log.Close()
}

// rssMB reports the server's peak resident set (VmHWM) in MiB.
func (p *serverProc) rssMB() (float64, error) { return peakRSSMB(p.cmd.Process.Pid) }

// peakRSSMB reads VmHWM of a process from /proc.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
