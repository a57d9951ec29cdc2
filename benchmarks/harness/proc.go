package harness

import (
	"bufio"
	"fmt"
	"io"
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

// runEnv owns what a run leaves outside its own memory: a scratch
// directory (data file, WAL directories, a paracosm binary built on
// demand) and the server children. cleanup reaps every child and removes
// the directory, on every path out of a run.
type runEnv struct {
	scratch string
	bin     string
	procs   []*serverProc
	nextDir int
}

func newRunEnv(o Options) (*runEnv, error) {
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.OutDir, "run-*")
	if err != nil {
		return nil, err
	}
	// The server is handed absolute paths; it does not share our cwd's
	// meaning of a relative one once flags are parsed elsewhere.
	abs, err := filepath.Abs(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &runEnv{scratch: abs, bin: o.Paracosm}
	if e.bin == "" {
		e.bin, err = buildParacosm(abs)
	} else {
		e.bin, err = filepath.Abs(e.bin)
	}
	if err != nil {
		e.cleanup()
		return nil, err
	}
	return e, nil
}

// buildParacosm builds the server binary into dir. The go command finds
// the package through the benchmark module's replace directive, so the
// working directory must be inside that module.
func buildParacosm(dir string) (string, error) {
	bin := filepath.Join(dir, "paracosm")
	if out, err := exec.Command("go", "build", "-o", bin, "paracosm/cmd/paracosm").CombinedOutput(); err != nil {
		return "", fmt.Errorf("build paracosm (run from the benchmarks module, or pass -paracosm): %v\n%s", err, out)
	}
	return bin, nil
}

func (e *runEnv) cleanup() {
	for _, p := range e.procs {
		p.kill()
	}
	os.RemoveAll(e.scratch)
}

// dir returns a fresh directory path under the scratch directory.
func (e *runEnv) dir(prefix string) string {
	e.nextDir++
	return filepath.Join(e.scratch, fmt.Sprintf("%s-%d", prefix, e.nextDir))
}

// serverProc is one `paracosm serve` child.
type serverProc struct {
	cmd     *exec.Cmd
	started time.Time
	readyAt time.Time // when the "serving on" line was read
	addr    string
	debug   string // host:port of the debug server, "" without -debug-addr

	mu       sync.Mutex
	tail     []string // last stderr lines, for error reports
	scanDone chan struct{}
	killOnce sync.Once
}

// start launches the server and returns once it announces readiness (its
// "serving on" line, printed when recovery replay has completed and the
// listener accepts), the process exits, or a minute passes. Ports come
// from :0 and are read back from the server's own announcements.
func (e *runEnv) start(args ...string) (*serverProc, error) {
	cmd := exec.Command(e.bin, append([]string{"serve"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(Threads()))
	// The child must not outlive a benchmark that is itself killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, scanDone: make(chan struct{})}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", e.bin, err)
	}
	e.procs = append(e.procs, p)
	ready := make(chan struct{})
	go p.scan(stderr, ready)
	select {
	case <-ready:
		return p, nil
	case <-p.scanDone:
		p.kill()
		return nil, fmt.Errorf("paracosm serve exited before serving:\n%s", p.stderrTail())
	case <-time.After(time.Minute):
		p.kill()
		return nil, fmt.Errorf("paracosm serve not ready after a minute:\n%s", p.stderrTail())
	}
}

// scan reads the child's stderr to EOF, picking the two addresses out of
// its announcements and closing ready at the "serving on" line.
func (p *serverProc) scan(r io.Reader, ready chan struct{}) {
	defer close(p.scanDone)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		ln := sc.Text()
		now := time.Now()
		p.mu.Lock()
		if p.tail = append(p.tail, ln); len(p.tail) > 20 {
			p.tail = p.tail[1:]
		}
		p.mu.Unlock()
		if rest, ok := strings.CutPrefix(ln, "debug server on http://"); ok {
			p.debug, _, _ = strings.Cut(rest, " ")
		} else if rest, ok := strings.CutPrefix(ln, "serving on "); ok && p.addr == "" {
			p.addr, _, _ = strings.Cut(rest, " ")
			p.readyAt = now
			close(ready)
		}
	}
}

func (p *serverProc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// kill sends SIGKILL — the crash the recovery measurement needs, and all
// a scratch server deserves — and reaps the child. Idempotent.
func (p *serverProc) kill() {
	p.killOnce.Do(func() {
		_ = p.cmd.Process.Kill() // already-exited is the only failure, and is fine
		<-p.scanDone             // Wait closes the pipe; drain it first
		_ = p.cmd.Wait()         // "signal: killed" is the expected outcome
	})
}

// get fetches one path of the debug server.
func (p *serverProc) get(path string) (int, []byte, error) {
	if p.debug == "" {
		return 0, nil, fmt.Errorf("server has no debug address")
	}
	resp, err := http.Get("http://" + p.debug + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// counters scrapes /metrics into a map of un-labelled series (histogram
// _count/_sum series included).
func (p *serverProc) counters() (map[string]float64, error) {
	code, body, err := p.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	out := make(map[string]float64)
	for _, ln := range strings.Split(string(body), "\n") {
		if ln == "" || ln[0] == '#' || strings.ContainsRune(ln, '{') {
			continue
		}
		name, val, ok := strings.Cut(ln, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}
