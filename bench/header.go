package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// Header identifies the machine and build a results file came from.
type Header struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// LLCMiB is the last-level cache size from sysfs, 0 when unknown.
	LLCMiB   float64 `json:"llcMiB"`
	Revision string  `json:"revision"`
	Modified bool    `json:"modified"`
	Seed     int64   `json:"seed"`
}

func newHeader(seed int64) Header {
	h := Header{
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		LLCMiB: llcMiB(), Revision: "unknown", Seed: seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

func (h Header) String() string {
	rev := h.Revision
	if h.Modified {
		rev += " (modified)"
	}
	return fmt.Sprintf("# vavgperf %s %s/%s  nproc=%d GOMAXPROCS=%d  LLC=%g MiB  rev=%s  seed=%d\n"+
		"# numbers come from a %d-CPU box, one rep process at a time; they are not multicore scaling\n",
		h.Go, h.OS, h.Arch, h.NumCPU, h.GOMAXPROCS, h.LLCMiB, rev, h.Seed, h.NumCPU)
}

// llcMiB reads the size of CPU 0's highest-level cache from sysfs.
func llcMiB() float64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, size := 0, 0.0
	for _, d := range dirs {
		level, err1 := readSysInt(filepath.Join(d, "level"), "")
		kib, err2 := readSysInt(filepath.Join(d, "size"), "K")
		if err1 == nil && err2 == nil && level > best {
			best, size = level, float64(kib)/1024
		}
	}
	return size
}

func readSysInt(path, suffix string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(string(b)), suffix))
}
