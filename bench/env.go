package main

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/latency"
	"repro/internal/store/slowfs"
)

// device is the modeled durable medium every durable workload runs on
// (E16's device): a commit costs the same on every host.
var device = slowfs.Device{Latency: 2 * time.Millisecond, BytesPerSec: 512 << 10}

// machine is the profile recorded in every result file; compare refuses
// two files whose cores differ.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
	Device     string `json:"device"`
	Clients    int    `json:"clients"`
}

func machineProfile() machine {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Commit:  commit,
		Device:  fmt.Sprintf("slowfs latency=%v bytes/s=%d sync=true", device.Latency, device.BytesPerSec),
		Clients: clients(),
	}
}

// clients is the number of closed-loop clients and the cap on HTTP
// connections: the generator shares the machine with the system under
// test, so it never uses more than two.
func clients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB is HeapAlloc after the collector has settled.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// memCounters are the cumulative allocator and collector counters whose
// deltas around a window give allocs/op and GC pause.
type memCounters struct {
	Mallocs, TotalAlloc, PauseNS uint64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{m.Mallocs, m.TotalAlloc, m.PauseTotalNs}
}

// storeBytes sums only what the store itself keeps on disk (log, side
// logs and sealed segments), leaving out the gateway's key journal and
// the control/tenant snapshots.
func storeBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		base := filepath.Base(path)
		if strings.HasPrefix(base, "provenance.log") || strings.HasSuffix(base, ".seg") {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// goroutinePeak samples the goroutine count until stop is closed.
func goroutinePeak(stop <-chan struct{}, out *int) {
	tk := time.NewTicker(10 * time.Millisecond)
	defer tk.Stop()
	for {
		if n := runtime.NumGoroutine(); n > *out {
			*out = n
		}
		select {
		case <-stop:
			return
		case <-tk.C:
		}
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// p50us reads a digest's median in float microseconds, keeping the
// nanosecond digits latency.Summary rounds away.
func p50us(d *latency.Digest) float64 { return us(d.P50()) }

// tailOf returns the highest of the usual percentiles that still has at
// least ten samples beyond it, and its value; with fewer than a hundred
// samples there is no tail to report and it returns the median.
func tailOf(d *latency.Digest) (pct float64, v time.Duration) {
	q := 0.5
	switch n := d.Count(); {
	case n >= 10000:
		q = 0.999
	case n >= 1000:
		q = 0.99
	case n >= 200:
		q = 0.95
	case n >= 100:
		q = 0.90
	}
	return 100 * q, d.Quantile(q)
}

func digestOf(ds []time.Duration) *latency.Digest {
	d := &latency.Digest{}
	d.AddAll(ds)
	return d
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scratchDir makes a fresh directory for one workload's data under root.
func scratchDir(root, name string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, name+"-")
}
