package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runContext records what ran, on what. None of it feeds a metric.
type runContext struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Size       string   `json:"size"`
	Commit     string   `json:"commit"`
	SourceHash string   `json:"source_sha256"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	CPUModels  []string `json:"cpu_models"`
	// ALURate is a fixed xorshift spin kernel's speed, in Mrounds/s: how
	// fast this host ran integer code around the time of the run.
	ALURate float64 `json:"alu_mrounds_per_s"`
}

func collectContext(o options, p *plan) runContext {
	return runContext{
		Workload: o.workload, Seed: o.seed, Size: p.size,
		Commit: gitCommit(o.root), SourceHash: sourceHash(o.root),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModels: cpuModels(), ALURate: aluRate(),
	}
}

func printContext(w io.Writer, ctx runContext) {
	b, err := json.Marshal(struct {
		Context runContext `json:"context"`
	}{ctx})
	if err == nil {
		fmt.Fprintf(w, "%s\n", b)
	}
}

// gitCommit reads HEAD from the checkout's .git directory, or reports
// "unknown" when the checkout is not a git repository.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and go.mod file of the checkout, so a
// result names its code even where the checkout carries no git metadata.
func sourceHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModels lists the distinct "model name" lines of /proc/cpuinfo.
func cpuModels() []string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return nil
	}
	defer f.Close()
	seen := map[string]bool{}
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			v = strings.TrimSpace(v)
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// spinRounds sizes the calibration kernel: a fixed xorshift loop, pure
// ALU, no memory traffic.
const spinRounds = 1 << 22

var spinSink uint64

func spin() {
	x := uint64(88172645463325252)
	for i := 0; i < spinRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
}

// aluRate is the median of five timings of the spin kernel, in millions of
// rounds per second.
func aluRate() float64 {
	var rates []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		spin()
		rates = append(rates, spinRounds/time.Since(t).Seconds()/1e6)
	}
	return quantile(rates, 0.5)
}
