package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is where one benchmark process builds and runs: the module root, the
// two product binaries, and a scratch directory that holds every store file
// the run creates. Everything lives under ROOT/.bench_build, so a run reads
// and writes only inside its checkout.
type env struct {
	root  string // module root (holds go.mod)
	cpdbd string // built cmd/cpdbd
	cpdb  string // built cmd/cpdb
	work  string // per-process scratch directory
	procs int    // GOMAXPROCS of daemons and the in-process chain
	seq   int
}

// moduleRoot walks up from the working directory to the go.mod of module
// repro; the benchmark refuses to run anywhere else.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module repro") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: not inside the repro module (no go.mod found)")
		}
		dir = parent
	}
}

// newEnv builds cmd/cpdbd and cmd/cpdb once — before any clock starts — and
// creates the scratch directory.
func newEnv() (*env, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{
		root:  root,
		cpdbd: filepath.Join(build, "bin", "cpdbd"),
		cpdb:  filepath.Join(build, "bin", "cpdb"),
		procs: min(runtime.NumCPU(), 2),
	}
	for _, dir := range []string{"bin", "run"} {
		if err := os.MkdirAll(filepath.Join(build, dir), 0o755); err != nil {
			return nil, err
		}
	}
	cmd := exec.Command("go", "build", "-o", filepath.Join(build, "bin")+string(filepath.Separator), "./cmd/cpdbd", "./cmd/cpdb")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("benchmark: go build ./cmd/cpdbd ./cmd/cpdb: %v\n%s", err, out)
	}
	e.work, err = os.MkdirTemp(filepath.Join(build, "run"), "r")
	return e, err
}

func (e *env) close() { os.RemoveAll(e.work) }

// dir returns a fresh empty directory under the scratch directory.
func (e *env) dir(prefix string) (string, error) {
	e.seq++
	d := filepath.Join(e.work, fmt.Sprintf("%s%d", prefix, e.seq))
	return d, os.MkdirAll(d, 0o755)
}

// copyDir copies a store directory as a directory — whatever files the
// store keeps there — so the benchmark knows nothing of the store's layout.
func copyDir(src, dst string) error { return os.CopyFS(dst, os.DirFS(src)) }

// dirBytes is the on-disk size of every file under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// relDSN names the relational store kept in dir, opened with params
// ("create=1&durable=1", "durable=1", …). The path is escaped the way the
// DSN grammar wants, so a checkout path with "?", "%" or "#" still works.
func relDSN(dir, params string) string {
	file := strings.ReplaceAll(url.PathEscape(filepath.Join(dir, "prov.db")), "%2F", "/")
	return "rel://" + file + "?" + params
}

// --- daemon ------------------------------------------------------------------

// A daemon is one running cmd/cpdbd. Its log goes to a file, not a pipe, so
// the single-threaded generator never spends time reading request logs.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan error // receives cmd.Wait's result once
}

var servingLine = regexp.MustCompile(`cpdbd: serving .* at cpdb://(\S+)`)

// startDaemon starts cpdbd on a kernel-chosen port, reads the address from
// its "serving … at cpdb://ADDR" log line and waits for /v1/ping.
func (e *env) startDaemon(backend string, flags ...string) (*daemon, error) {
	e.seq++
	logf, err := os.Create(filepath.Join(e.work, fmt.Sprintf("cpdbd%d.log", e.seq)))
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-backend", backend, "-pprof"}, flags...)
	cmd := exec.Command(e.cpdbd, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.procs))
	cmd.Stderr = logf
	// A benchmark that is itself killed must not leave daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	logf.Close() // the daemon holds its own descriptor
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		data, _ := os.ReadFile(logf.Name())
		if m := servingLine.FindSubmatch(data); m != nil {
			d.addr = string(m[1])
			break
		}
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("benchmark: cpdbd -backend %s exited at start (%v): %s", backend, err, data)
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("benchmark: cpdbd -backend %s never logged its address", backend)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := d.get("/v1/ping"); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) dsn() string { return "cpdb://" + d.addr }

// stop shuts the daemon down gracefully and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.exited:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // already failing
		<-d.exited
		return errors.New("benchmark: cpdbd ignored SIGTERM")
	}
}

// kill is kill -9: no drain, no flush. It waits until the process is gone.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // the process may have exited already
	<-d.exited
}

// statsClient fetches the daemon's counters; it is not the measured
// connection.
var statsClient = &http.Client{Timeout: 30 * time.Second}

func (d *daemon) get(path string) (string, error) {
	resp, err := statsClient.Get("http://" + d.addr + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("benchmark: GET %s: %s", path, resp.Status)
	}
	return string(body), nil
}

// mem is the part of runtime.MemStats the benchmark reports.
type mem struct {
	Mallocs, TotalAlloc, HeapAlloc uint64
}

func (a mem) add(b mem) mem {
	return mem{a.Mallocs + b.Mallocs, a.TotalAlloc + b.TotalAlloc, a.HeapAlloc + b.HeapAlloc}
}

func (a mem) sub(b mem) mem {
	return mem{a.Mallocs - b.Mallocs, a.TotalAlloc - b.TotalAlloc, a.HeapAlloc - b.HeapAlloc}
}

// selfMem collects garbage and reads this process's counters.
func selfMem() mem {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mem{ms.Mallocs, ms.TotalAlloc, ms.HeapAlloc}
}

// mem collects garbage in the daemon and reads the runtime.MemStats block
// that ends /debug/pprof/heap?debug=1.
func (d *daemon) mem() (mem, error) {
	body, err := d.get("/debug/pprof/heap?debug=1&gc=1")
	if err != nil {
		return mem{}, err
	}
	var m mem
	found := 0
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		var dst *uint64
		switch name {
		case "Mallocs":
			dst = &m.Mallocs
		case "TotalAlloc":
			dst = &m.TotalAlloc
		case "HeapAlloc":
			dst = &m.HeapAlloc
		default:
			continue
		}
		if *dst, err = strconv.ParseUint(val, 10, 64); err != nil {
			return mem{}, fmt.Errorf("benchmark: heap profile %s: %w", name, err)
		}
		found++
	}
	if found != 3 {
		return mem{}, errors.New("benchmark: no runtime.MemStats block in /debug/pprof/heap?debug=1")
	}
	return m, nil
}

// served is what /metrics says the daemon has done so far: requests
// answered and seconds spent answering them, summed over the endpoints a
// Session uses. ok is false when the series are missing.
type served struct {
	requests float64
	busy     float64
	ok       bool
}

func (d *daemon) served() served {
	var s served
	var sawReq, sawBusy bool
	d.eachSeries(func(name, labels string, v float64) {
		if strings.Contains(labels, `endpoint="ping"`) || strings.Contains(labels, `endpoint="stats"`) {
			return
		}
		switch {
		case strings.HasSuffix(name, "endpoint_requests_total"):
			s.requests += v
			sawReq = true
		case strings.HasSuffix(name, "request_duration_seconds_sum"):
			s.busy += v
			sawBusy = true
		}
	})
	s.ok = sawReq && sawBusy
	return s
}

// eachSeries calls f for every sample line of the daemon's /metrics; an
// unreachable endpoint yields no lines.
func (d *daemon) eachSeries(f func(name, labels string, v float64)) {
	body, err := d.get("/metrics")
	if err != nil {
		return
	}
	for _, line := range strings.Split(body, "\n") {
		series, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		name, labels, _ := strings.Cut(series, "{")
		f(name, labels, v)
	}
}
