package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment is the record every result file carries, so a number can be
// traced back to the machine and build that produced it.
type environment struct {
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func readEnvironment(seed int64) environment {
	e := environment{
		Commit: "unknown", Seed: seed,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: os.Getenv("GOGC"), GoVersion: runtime.Version(),
		CPUModel: "unknown", Kernel: "unknown",
	}
	if e.GOGC == "" {
		e.GOGC = "100 (default)"
	}
	// Output waits for git to exit; outside a git checkout it just fails.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// warn reports a machine condition that makes the numbers hard to trust.
func (e environment) warn() {
	if e.GOMAXPROCS > e.NumCPU {
		fmt.Fprintf(os.Stderr, "bench: warning: GOMAXPROCS=%d exceeds the %d available CPUs; timings will include scheduler contention\n",
			e.GOMAXPROCS, e.NumCPU)
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM); where
// /proc does not offer it, what the Go runtime has obtained from the system.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.Sys) / (1 << 20)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && k == "VmHWM" {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// stolen returns the CPU time the hypervisor has taken from this virtual
// machine since boot, in clock ticks (the "steal" column of /proc/stat,
// summed over CPUs); 0 where the file or the column does not exist.
func stolen() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var v int64
	fmt.Sscan(f[8], &v)
	return v
}
