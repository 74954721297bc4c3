package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time — the §2 "extra work" a
// response-time win may spend.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealSeconds is the CPU time the hypervisor has so far withheld from this
// machine's vCPUs while they had work to run (the steal column of the first
// line of /proc/stat, in 10 ms ticks); 0 where the kernel does not say.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
		ticks, _ := strconv.ParseFloat(f[8], 64)
		return ticks / 100
	}
	return 0
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// kernelSink keeps the timed kernels' results alive so the compiler cannot
// drop them.
var kernelSink uint64

// calibMS times a fixed integer kernel of the given length — the fastest of
// three runs, so that the tail of a garbage collection does not count. It
// touches nothing of the system under test, so a change in it is the
// machine's.
func calibMS(iterations int) float64 {
	best := math.Inf(1)
	for run := 0; run < 3; run++ {
		t := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < iterations; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		kernelSink += x
		best = min(best, ms(time.Since(t)))
	}
	return best
}

// passCalib (~25 ms a run) is the kernel around a traced run, reported as
// bench.calib_ms; windowCalib (~2 ms a run) the one between the windows of a
// timed section.
const (
	passCalib   = 12_000_000
	windowCalib = 1_000_000
)

// repoRoot walks up from the working directory to the checkout root (the
// directory holding BENCHMARK.json).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in any parent of the working directory")
		}
		dir = parent
	}
}

// nontestLOC counts lines of non-test Go source outside the benchmark's own
// directory — ROADMAP aim 2 tracks it beside the timings.
func nontestLOC(root string) float64 {
	var lines int
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || (name == "bench" && filepath.Dir(path) == root)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			lines++
		}
		return nil
	})
	return float64(lines)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile returns the q-quantile of sorted values by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// geomean is the geometric mean of positive values (0 when empty).
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// jsonScalar finds the first `"key"` at or after from and returns the scalar
// that follows its colon — a string's contents or a number's digits. It
// tolerates any whitespace, so it holds whether the service indents its JSON
// or not. ok is false when the key is absent or its string holds an escape
// (the closing quote cannot then be told from an escaped one).
func jsonScalar(body []byte, from int, key string) (val []byte, ok bool) {
	pat := `"` + key + `"`
	for from < len(body) {
		i := bytes.Index(body[from:], []byte(pat))
		if i < 0 {
			return nil, false
		}
		p := from + i + len(pat)
		for p < len(body) && (body[p] == ' ' || body[p] == '\n' || body[p] == '\t' || body[p] == '\r') {
			p++
		}
		if p >= len(body) || body[p] != ':' {
			from = p // the pattern was a string value, not a key
			continue
		}
		p++
		for p < len(body) && (body[p] == ' ' || body[p] == '\n' || body[p] == '\t' || body[p] == '\r') {
			p++
		}
		if p < len(body) && body[p] == '"' {
			end := bytes.IndexByte(body[p+1:], '"')
			if end < 0 || bytes.IndexByte(body[p+1:p+1+end], '\\') >= 0 {
				return nil, false
			}
			return body[p+1 : p+1+end], true
		}
		end := p
		for end < len(body) && strings.IndexByte("+-.eE0123456789", body[end]) >= 0 {
			end++
		}
		return body[p:end], end > p
	}
	return nil, false
}
