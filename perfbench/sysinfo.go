package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// workDir holds the benchmark's scratch files (WAL directories, span
// dumps); it is the build output directory run.sh uses, so it is on the
// checkout's disk and ignored by git. Tests point it at a temp directory.
var workDir = ".bench_build"

// stamp prints the conditions every result depends on.
func stamp(cfg runConfig, workload string) {
	_ = os.MkdirAll(workDir, 0o755)
	line, _ := json.Marshal(map[string]any{
		"workload":   workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_sha":    gitSHA(),
		"wal_fs":     fsType(workDir),
		"conns":      conns,
		"workers":    serverWorkers,
		"engine":     engineWorkers,
	})
	cfg.info("stamp %s", line)
}

// gitSHA reports the commit the binary was built from: the VCS stamp the
// go command embeds when building inside a git work tree, else the HEAD
// recorded in .git, else "unknown" (a checkout without .git).
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x2FC12FC1: "zfs",
		0x65735546: "fuse",
		0x6969:     "nfs",
		0x01021997: "v9fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuSample reads the runtime's cumulative GC and total CPU seconds.
type cpuSample struct{ gc, total float64 }

func readCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(m metrics.Sample) float64 {
		if m.Value.Kind() == metrics.KindFloat64 {
			return m.Value.Float64()
		}
		return 0
	}
	return cpuSample{gc: val(s[0]), total: val(s[1])}
}

// gcShare is the share of the process's CPU time spent in GC between two
// samples.
func gcShare(a, b cpuSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.gc - a.gc) / (b.total - a.total)
}
