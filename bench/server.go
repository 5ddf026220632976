package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything building and running leave behind, relative to
// the checkout root: the collabd binary, server logs, store directories.
const buildDir = ".bench_build"

// scraper is the benchmark's own HTTP client for /readyz, /v1/stats and
// /metrics. It has a private transport so its traffic never passes through
// the meter and is not counted as workload bytes.
var scraper = &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}

// buildCollabd compiles cmd/collabd from the checkout the benchmark runs
// in and reports how long that took.
func buildCollabd() (bin string, took time.Duration, err error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", 0, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err = filepath.Abs(filepath.Join(buildDir, "collabd"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/collabd")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/collabd: %w\n%s", err, stderr.String())
	}
	return bin, time.Since(start), nil
}

// collabd is one spawned server process.
type collabd struct {
	cmd     *exec.Cmd
	url     string
	argv    []string
	readyIn time.Duration
	log     *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts bin on a free loopback port with its default flags plus
// extra, and returns once /readyz answers 200.
func spawn(bin string, extra ...string) (*collabd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	argv := append([]string{"-addr", addr}, extra...)
	logf, err := os.OpenFile(filepath.Join(buildDir, "collabd.log"), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, argv...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &collabd{cmd: cmd, url: "http://" + addr, argv: argv, log: logf}
	for deadline := start.Add(30 * time.Second); ; {
		resp, err := scraper.Get(c.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("collabd %v not ready after 30s (see %s/collabd.log)", argv, buildDir)
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.readyIn = time.Since(start)
	return c, nil
}

// kill stops the server at once and waits for it.
func (c *collabd) kill() {
	if c.cmd.ProcessState == nil {
		_ = c.cmd.Process.Kill()
		_ = c.cmd.Wait()
	}
	c.log.Close()
}

// terminate sends SIGTERM (collabd flushes and saves its state when it has
// a data directory), waits for the exit and reports how long it took.
func (c *collabd) terminate() (time.Duration, error) {
	start := time.Now()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return 0, err
	}
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
		c.log.Close()
		return 0, errors.New("collabd did not exit within 60s of SIGTERM")
	}
	c.log.Close()
	return time.Since(start), nil
}

func (c *collabd) scrape() scrape { return scrapeURL(c.url) }

// scrapeURL reads /v1/stats and /metrics of the server at base. A surface
// that fails to answer leaves its map empty, so the metrics derived from it
// come out absent.
func scrapeURL(base string) scrape {
	var s scrape
	if resp, err := scraper.Get(base + "/v1/stats"); err == nil {
		s.stats = flattenJSON(resp.Body)
		resp.Body.Close()
	}
	if resp, err := scraper.Get(base + "/metrics"); err == nil {
		s.prom = parseProm(resp.Body)
		resp.Body.Close()
	}
	return s
}

// procStats is what /proc says about the server process.
type procStats struct {
	cpuUser, cpuSys   float64 // seconds
	peakRSS           float64 // MB (VmHWM)
	ioRead, ioWritten float64 // MB that reached the block layer
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux platform Go supports.
const clockTick = 100

// proc reads /proc/<pid>/{stat,status,io}; fields that cannot be read stay
// absent.
func (c *collabd) proc() procStats {
	p := procStats{absent, absent, absent, absent, absent}
	dir := "/proc/" + strconv.Itoa(c.cmd.Process.Pid)
	if b, err := os.ReadFile(dir + "/stat"); err == nil {
		// Fields after the parenthesised command name; utime and stime
		// are the 14th and 15th fields of the line.
		if i := bytes.LastIndexByte(b, ')'); i >= 0 {
			f := strings.Fields(string(b[i+1:]))
			if len(f) > 12 {
				if u, err := strconv.ParseFloat(f[11], 64); err == nil {
					p.cpuUser = u / clockTick
				}
				if s, err := strconv.ParseFloat(f[12], 64); err == nil {
					p.cpuSys = s / clockTick
				}
			}
		}
	}
	p.peakRSS = procField(dir+"/status", "VmHWM:") / 1024
	p.ioRead = procField(dir+"/io", "read_bytes:") / 1e6
	p.ioWritten = procField(dir+"/io", "write_bytes:") / 1e6
	return p
}

// procField returns the first number after key in a "key: value" file.
func procField(path, key string) float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return absent
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if v, err := strconv.ParseFloat(f[0], 64); err == nil {
					return v
				}
			}
		}
	}
	return absent
}

// dirMB returns the bytes of regular files under dir, in MB.
func dirMB(dir string) float64 {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		return absent
	}
	return float64(total) / 1e6
}
