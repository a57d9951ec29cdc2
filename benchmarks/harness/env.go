package harness

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Env is the recorded environment of one run.
type Env struct {
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	LoadStart  string `json:"loadavg_start"`
	LoadEnd    string `json:"loadavg_end"`
}

// Threads is GOMAXPROCS = Threads = min(nproc, 4): the deployed
// configuration on the box the benchmark runs on.
func Threads() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func captureEnv() Env {
	e := Env{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LoadStart:  loadavg(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return ""
	}
	return strings.Join(f[:3], " ")
}

// selfCPU is this process's user+system CPU time over all threads.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvDur(ru.Utime) + tvDur(ru.Stime)
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// clockTick is the kernel's USER_HZ; /proc/<pid>/stat reports CPU time in
// these ticks, and Linux fixes it at 100 on every supported architecture.
const clockTick = 10 * time.Millisecond

// procCPU is a child's user+system CPU time read from /proc/<pid>/stat,
// for sampling a live server between passes (wait4 only reports at exit).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("harness: malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("harness: short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // utime: field 14 of the line
	st, err2 := strconv.ParseInt(f[12], 10, 64) // stime: field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("harness: unparsable /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

func procFile(pid int, name string) string {
	if pid == 0 {
		return "/proc/self/" + name
	}
	return fmt.Sprintf("/proc/%d/%s", pid, name)
}

// resetPeakRSS restarts a process's peak-RSS watermark (pid 0 is this
// process), so that peakRSSMB afterwards reports the peak since now. A
// process's lifetime peak is the top of one garbage-collection sawtooth
// somewhere in the run and moves by a fifth between identical runs; the
// peak of each pass, then the median over passes, does not. Where /proc
// refuses the write the watermark simply stays the lifetime one.
func resetPeakRSS(pid int) {
	_ = os.WriteFile(procFile(pid, "clear_refs"), []byte("5"), 0) // 5: reset VmHWM; see proc(5)
}

// peakRSSMB is a process's peak resident set (VmHWM) in MB since its
// start or the last resetPeakRSS; pid 0 is this process.
func peakRSSMB(pid int) (float64, error) {
	path := procFile(pid, "status")
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("harness: no VmHWM in %s", path)
}
