package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTicks reads the aggregate "cpu" line of /proc/stat and returns the
// total and the steal ticks (0, 0 where the file is missing).
func cpuTicks() (total, steal uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice]:
		// guest time is already counted in user, so stop after steal.
		for i, f := range fields[1:9] {
			v, _ := strconv.ParseUint(f, 10, 64)
			total += v
			if i == 7 {
				steal = v
			}
		}
		return total, steal
	}
	return 0, 0
}

// hostProbe records host conditions over a run so that a reader can
// tell contention on the host from a regression. Nothing gates on it.
type hostProbe struct {
	start           time.Time
	ticks0, steal0  uint64
	gc0             uint32
	pause0          uint64
	nivcsw0, nvcsw0 int64
	utime0, stime0  time.Duration
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

func startHostProbe() *hostProbe {
	h := &hostProbe{start: time.Now()}
	h.ticks0, h.steal0 = cpuTicks()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.gc0, h.pause0 = ms.NumGC, ms.PauseTotalNs
	ru := rusage()
	h.nivcsw0, h.nvcsw0 = ru.Nivcsw, ru.Nvcsw
	h.utime0, h.stime0 = tvDur(ru.Utime), tvDur(ru.Stime)
	return h
}

// hostContext is printed with every result.
type hostContext struct {
	NumCPU         int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	WallS          float64 `json:"wall_s"`
	CPUS           float64 `json:"cpu_s"`
	StealPct       float64 `json:"steal_pct"`
	GCCycles       uint32  `json:"gc_cycles"`
	GCPauseMS      float64 `json:"gc_pause_ms"`
	InvoluntaryCSW int64   `json:"involuntary_ctx_switches"`
	VoluntaryCSW   int64   `json:"voluntary_ctx_switches"`
	MaxRSSMB       float64 `json:"max_rss_mb"`
}

func (h *hostProbe) finish() hostContext {
	ticks, steal := cpuTicks()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ru := rusage()
	return hostContext{
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		WallS:          time.Since(h.start).Seconds(),
		CPUS:           (tvDur(ru.Utime) - h.utime0 + tvDur(ru.Stime) - h.stime0).Seconds(),
		StealPct:       100 * ratio(float64(steal-h.steal0), float64(ticks-h.ticks0)),
		GCCycles:       ms.NumGC - h.gc0,
		GCPauseMS:      float64(ms.PauseTotalNs-h.pause0) / 1e6,
		InvoluntaryCSW: ru.Nivcsw - h.nivcsw0,
		VoluntaryCSW:   ru.Nvcsw - h.nvcsw0,
		MaxRSSMB:       maxRSSMB(),
	}
}

// maxRSSMB is the process's peak resident set size so far, in MB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// resetPeakRSS restarts the kernel's high-water mark of the process's
// resident set, after returning free heap memory to the OS when fresh is
// set, so that peakRSSMB then reads the peak of what follows alone.
// Where /proc/self/clear_refs is not writable the mark keeps the
// process's lifetime peak.
func resetPeakRSS(fresh bool) {
	if fresh {
		debug.FreeOSMemory()
	}
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MB, or the
// process's lifetime peak where /proc/self/status is missing.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return maxRSSMB()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return maxRSSMB()
}
