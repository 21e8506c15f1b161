package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where the programs under test are compiled to, inside the
// checkout (the driver's checkout is not a git repository and starts
// without binaries; the root .gitignore names this directory).
const buildDir = ".bench_build"

// buildBinaries compiles cmd/repro and cmd/serve from the checkout at
// root and returns how long the go tool took. The time measures the
// toolchain's cache, not the system, so it is reported as host.build_s
// and kept out of setup_s.
func buildBinaries(root string) (time.Duration, error) {
	bin := binPath(root, "")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/repro", "./cmd/serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/repro ./cmd/serve: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

func binPath(root, name string) string {
	p, _ := filepath.Abs(filepath.Join(root, buildDir, "bin", name))
	return p
}

// proc is one started sub-process. A goroutine owned by the proc waits
// for it, so "has it exited" is a channel read and stop never races a
// second Wait.
type proc struct {
	cmd     *exec.Cmd
	done    chan struct{} // closed once the process has been reaped
	waitErr error         // valid after done is closed
}

// children tracks every sub-process the benchmark started, so that each
// exit path — success, a failed check, a panic, SIGINT — can stop and
// reap them. A child that is still running when the benchmark returns is
// a bug the self-tests look for.
var children struct {
	sync.Mutex
	live map[*proc]bool
}

// startProc starts cmd so that it dies with the benchmark even when the
// benchmark itself is killed outright, and registers it for the sweep.
func startProc(cmd *exec.Cmd) (*proc, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*proc]bool)
	}
	children.live[p] = true
	children.Unlock()
	go func() {
		p.waitErr = cmd.Wait()
		children.Lock()
		delete(children.live, p)
		children.Unlock()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM, waits up to grace for the process to exit, then
// kills it; the process has been reaped when stop returns.
func (p *proc) stop(grace time.Duration) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // "already finished" is fine: done is closed then
	select {
	case <-p.done:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// stopAllChildren terminates and reaps whatever is still tracked. It is
// the last-resort sweep behind the per-process stop calls.
func stopAllChildren() {
	children.Lock()
	live := make([]*proc, 0, len(children.live))
	//lint:ordered every child is stopped and reaped; which goes first does not matter
	for p := range children.live {
		live = append(live, p)
	}
	children.Unlock()
	for _, p := range live {
		p.stop(5 * time.Second)
	}
}

// liveChildren counts tracked processes that have not been reaped.
func liveChildren() int {
	children.Lock()
	defer children.Unlock()
	return len(children.live)
}

// runResult is what one finished sub-process cost.
type runResult struct {
	wall   time.Duration
	rssMB  float64 // peak resident set (ru_maxrss)
	stdout string
	stderr string
}

// runToCompletion runs a short-lived program (cmd/repro) and waits.
func runToCompletion(path string, args ...string) (runResult, error) {
	cmd := exec.Command(path, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	p, err := startProc(cmd)
	if err != nil {
		return runResult{}, err
	}
	<-p.done
	res := runResult{wall: time.Since(start), stdout: stdout.String(), stderr: stderr.String()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if p.waitErr != nil {
		return res, fmt.Errorf("%s %s: %v\n%s", filepath.Base(path), strings.Join(args, " "), p.waitErr, stderr.String())
	}
	return res, nil
}

// serveProc is one running cmd/serve in HTTP mode.
type serveProc struct {
	*proc
	url    string
	stderr *os.File
}

// startServe launches cmd/serve on a free loopback port and returns once
// GET /metrics answers. The port is found by binding 127.0.0.1:0 and
// releasing it; if another process grabs it first the server exits and
// the next attempt picks a new one.
func startServe(root string, workers int, stderrPath string) (*serveProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		if err := l.Close(); err != nil {
			return nil, err
		}
		errFile, err := os.Create(stderrPath)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(binPath(root, "serve"), "-http", addr, "-workers", strconv.Itoa(workers), "-queue", "64")
		cmd.Stderr = errFile
		child, err := startProc(cmd)
		if err != nil {
			errFile.Close()
			return nil, err
		}
		p := &serveProc{proc: child, url: "http://" + addr, stderr: errFile}
		if lastErr = p.waitReady(10 * time.Second); lastErr == nil {
			return p, nil
		}
		p.close()
	}
	return nil, fmt.Errorf("cmd/serve did not become ready: %v (stderr in %s)", lastErr, stderrPath)
}

func (p *serveProc) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(p.url + "/metrics")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("GET /metrics: %s", resp.Status)
		}
		if p.exited() {
			return errors.New("server exited before answering")
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// close stops the server and releases its stderr file.
func (p *serveProc) close() {
	p.stop(5 * time.Second)
	p.stderr.Close()
}

func (p *serveProc) pid() int { return p.cmd.Process.Pid }

// procStatusMB reads one "Vm*" line (kB) of /proc/<pid>/status.
func procStatusMB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s line", pid, key)
}

// procStatFields returns the fields of /proc/<pid>/stat that follow the
// command name (which may itself contain spaces): index 0 is the state,
// 1 the parent PID, 11 and 12 utime and stime in clock ticks.
func procStatFields(pid string) ([]string, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return nil, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return nil, fmt.Errorf("/proc/%s/stat: short line", pid)
	}
	return f, nil
}

// procCPUSeconds returns user+system CPU seconds of pid (clock ticks of
// 1/100 s).
func procCPUSeconds(pid int) (float64, error) {
	f, err := procStatFields(strconv.Itoa(pid))
	if err != nil {
		return 0, err
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (utime + stime) / 100, nil
}
