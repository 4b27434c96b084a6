package main

import (
	"bufio"
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

// repoRoot finds the repository the benchmark measures: the current
// directory when run from the root (bench/run.sh), its parent when run from
// bench/ (go run . or go test).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "mlb-serve")); err == nil && st.IsDir() {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("cmd/mlb-serve not found in . or ..: run from the repository root or bench/")
}

// buildServer compiles cmd/mlb-serve from source into dir.
func buildServer(root, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "mlb-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mlb-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mlb-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one mlb-serve process with default flags on a loopback port.
type server struct {
	cmd  *exec.Cmd
	url  string
	logs bytes.Buffer
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's error, valid after done
}

// ctl sends the benchmark's control requests (health, metrics, priming);
// the measured traffic has its own client.
var ctl = &http.Client{Timeout: 5 * time.Minute}

// startServer execs bin and returns once /healthz answers. It retries on
// a fresh port if the server exits first, which it does when another
// process took the free port in the meantime.
func startServer(bin string) (s *server, err error) {
	for try := 0; try < 3; try++ {
		if s, err = startOnce(bin); err == nil {
			return s, nil
		}
	}
	return nil, err
}

func startOnce(bin string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://127.0.0.1:" + port, done: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+port)
	s.cmd.Stdout, s.cmd.Stderr = &s.logs, &s.logs
	// The server dies with the benchmark even if the benchmark is killed
	// before it can stop it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := ctl.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("mlb-serve exited before /healthz answered (%v): %s", s.err, s.logs.String())
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("mlb-serve /healthz not OK after 10s: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// stop shuts the server down gracefully and waits for it to exit.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	ctl.CloseIdleConnections()
}

// post sends one control request and returns the response body; a
// non-200 status is an error.
func (s *server) post(path string, body []byte) ([]byte, error) {
	resp, err := ctl.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// metrics scrapes the unlabelled series of GET /metrics.
func (s *server) metrics() (map[string]float64, error) {
	resp, err := ctl.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime reads the server's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat: %q", data)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat: %q", data)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat: %q", data)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS reads the server's peak resident set (VmHWM) in MB.
func (s *server) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// hostCPU reads the machine-wide CPU time the hypervisor took away from
// this machine (steal) and the total of every state, in clock ticks, from
// the first line of /proc/stat; both are 0 where it cannot be read.
func hostCPU() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest...]; the
	// guest times are already inside user and nice.
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:9] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
