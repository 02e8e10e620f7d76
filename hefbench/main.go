// Command hefbench is the repository's end-to-end benchmark. It drives the
// HEF reproduction through its public packages on four workloads — the SSB
// figures, the offline search on irregular and on streaming operators, and
// the sensitivity analysis — checks every output, and prints one JSON
// result line. README.md in this directory gives the workload rationale and
// the metric → layer → workload map.
//
//	bash hefbench/run.sh --workload ssb-figures --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
// runs the same pass twice, untraced in a fresh child process and traced in
// this one, checks that both agree, and reports the per-layer metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the golden digests were recorded at. For it the
// workloads run the paper's inputs: the ssbbench generator seed, the paper's
// operator sizes, the built-in hash seed, and hefsens's ensemble seed.
const defaultSeed = 1

// smokeSeconds is the --seconds value below which every workload shrinks to
// one small operation; the self-tests run there.
const smokeSeconds = 10

// setupRepeats is how many fresh processes time the set-up; setup_s is
// their median.
const setupRepeats = 11

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
	out      string
	// child runs the untraced pass for a traced parent and prints the raw
	// pass record; setupOnly exits right after set-up, for timing it.
	child     bool
	setupOnly bool
	// updateGolden rewrites this workload's entries in golden.json.
	updateGolden bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hefbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name, or \"all\" for every workload in turn: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "input seed; the golden digests hold for seed 1")
	fs.Float64Var(&o.seconds, "seconds", 20, fmt.Sprintf("time target of the measured phase; below %d every workload shrinks to one small operation", smokeSeconds))
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "root of the hef checkout")
	fs.StringVar(&o.out, "out", "", "directory for trace files (default: no files)")
	fs.BoolVar(&o.child, "child", false, "internal: run the untraced pass for a traced parent")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: exit after set-up")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "rewrite this workload's golden digests (seed 1, full size)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "hefbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "hefbench: --seconds must be positive, got %g\n", o.seconds)
		return 2
	}
	if _, err := os.Stat(filepath.Join(o.root, "internal", "core")); err != nil {
		fmt.Fprintf(stderr, "hefbench: %s is not a checkout of the hef module: %v\n", o.root, err)
		return 2
	}
	if o.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	setup, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "hefbench: unknown --workload %q (want one of %s, or all)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.updateGolden && (o.seed != defaultSeed || o.seconds < smokeSeconds || o.trace) {
		fmt.Fprintf(stderr, "hefbench: --update-golden needs --seed %d, --seconds >= %d and --trace 0\n", defaultSeed, smokeSeconds)
		return 2
	}

	plan, err := setup(o)
	if err != nil {
		fmt.Fprintf(stderr, "hefbench: set-up: %v\n", err)
		return 1
	}
	if o.setupOnly {
		return 0
	}
	if o.child {
		rec := runPass(plan, nil)
		if err := json.NewEncoder(stdout).Encode(rec); err != nil {
			fmt.Fprintf(stderr, "hefbench: %v\n", err)
			return 1
		}
		return 0
	}
	if o.trace {
		return runTraced(o, plan, stdout, stderr)
	}
	return runUntraced(o, plan, stdout, stderr)
}

// runUntraced measures the end-to-end metrics: set-up time from fresh
// processes, then one pass in this process, then the output checks.
func runUntraced(o options, plan *plan, stdout, stderr io.Writer) int {
	setup, err := timeSetup(o)
	if err != nil {
		fmt.Fprintf(stderr, "hefbench: timing set-up: %v\n", err)
		return 1
	}
	rec := runPass(plan, nil)
	rss := maxRSSMB()

	ck := newChecker(stderr)
	ck.pass(plan, rec)
	if o.updateGolden {
		if err := writeGolden(o.root, plan.workload, rec); err != nil {
			fmt.Fprintf(stderr, "hefbench: %v\n", err)
			return 1
		}
	} else {
		ck.golden(plan, rec)
	}
	modelErr := ck.modelErr(rec)

	ctx := collectContext(o, plan)
	printContext(stdout, ctx)
	attempted, failed := len(rec.Ops), ck.failedOps(len(rec.Ops))
	fmt.Fprintf(stdout, "hefbench: %s seed=%d size=%s\n", plan.workload, o.seed, plan.size)
	for _, r := range rec.Ops {
		fmt.Fprintf(stdout, "  %-30s %.3f s\n", r.Name, r.Seconds)
	}
	fmt.Fprintf(stdout, "  %-14s %.4f s\n", "wall_s", rec.WallS)
	fmt.Fprintf(stdout, "  %-14s %.4f s\n", "setup_s", setup)
	fmt.Fprintf(stdout, "  %-14s %.1f MB\n", "max_rss_mb", rss)
	fmt.Fprintf(stdout, "  %-14s %.4f (%d of %d operations failed)\n", "error_rate", float64(failed)/float64(attempted), failed, attempted)
	fmt.Fprintf(stdout, "  %-14s %.3f %%\n", "model_err_pct", modelErr)
	return emit(stdout, attempted, failed, []metric{
		{"wall_s", rec.WallS, "s"},
		{"setup_s", setup, "s"},
		{"max_rss_mb", rss, "MB"},
		{"model_err_pct", modelErr, "%"},
	})
}

// runTraced runs the untraced pass in a fresh child process, then the traced
// pass here, checks that both agree, and reports the per-layer metrics.
func runTraced(o options, plan *plan, stdout, stderr io.Writer) int {
	base, err := runChild(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "hefbench: untraced pass: %v\n", err)
		return 1
	}
	tr := newTracer()
	rec := runPass(plan, tr)
	ck := newChecker(stderr)
	post, err := tr.afterPass(plan, rec)
	if err != nil {
		ck.fail(-1, "timing layers after the pass: %v", err)
	}
	ck.pass(plan, rec)
	ck.golden(plan, rec)
	ck.agree(base, rec)

	ms := layerMetrics(rec, tr, post, ck.cache, base.WallS)
	ctx := collectContext(o, plan)
	printContext(stdout, ctx)
	if o.out != "" {
		path, err := tr.write(o.out, plan, ctx, ms)
		if err != nil {
			fmt.Fprintf(stderr, "hefbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "hefbench: spans written to %s\n", path)
	}
	attempted, failed := len(rec.Ops), ck.failedOps(len(rec.Ops))
	fmt.Fprintf(stdout, "hefbench: %s seed=%d size=%s traced\n", plan.workload, o.seed, plan.size)
	for _, m := range ms {
		fmt.Fprintf(stdout, "  %-32s %.6g %s\n", m.name, m.value, m.unit)
	}
	return emit(stdout, attempted, failed, ms)
}

// runAll runs every workload in its own process, one after another.
func runAll(args []string, stdout, stderr io.Writer) int {
	code := 0
	for _, name := range workloadNames() {
		cmd, err := self(append(withoutWorkload(args), "-workload", name)...)
		if err != nil {
			fmt.Fprintf(stderr, "hefbench: %v\n", err)
			return 1
		}
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "hefbench: workload %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// withoutWorkload drops the -workload flag (either spelling, joined or
// separate value) from args.
func withoutWorkload(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == "workload" {
			i++
			continue
		}
		if strings.HasPrefix(a, "workload=") {
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// self returns a command that runs this binary with args.
func self(args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return exec.Command(exe, args...), nil
}

// childArgs are the flags that make a child process plan the same pass.
func (o options) childArgs(mode string) []string {
	return []string{"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-root", o.root, mode}
}

// timeSetup starts setupRepeats fresh processes that exit right after
// set-up and returns the median of their lifetimes: process start, runtime
// and package initialisation, and the workload's set-up (templates, ISA
// tables, inputs, goldens).
func timeSetup(o options) (float64, error) {
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		cmd, err := self(o.childArgs("-setup-only")...)
		if err != nil {
			return 0, err
		}
		var errb bytes.Buffer
		cmd.Stderr = &errb
		t := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("%v: %s", err, strings.TrimSpace(errb.String()))
		}
		ds = append(ds, time.Since(t).Seconds())
	}
	return quantile(ds, 0.5), nil
}

// runChild runs the untraced pass in a fresh process and decodes its record.
func runChild(o options, stderr io.Writer) (*passRecord, error) {
	cmd, err := self(o.childArgs("-child")...)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var rec passRecord
	if err := json.Unmarshal(lastLine(out.Bytes()), &rec); err != nil {
		return nil, fmt.Errorf("decoding child record: %w", err)
	}
	return &rec, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

type metric struct {
	name  string
	value float64
	unit  string
}

// emit prints the result line the benchmark contract asks for and returns
// the exit code: 0 whenever the run completed, failed operations included
// (they are reported through "failed" and "correct").
func emit(w io.Writer, attempted, failed int, ms []metric) int {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]val{}}
	for _, m := range ms {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hefbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	return 0
}

// maxRSSMB is the process's peak resident set so far, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the nearest-rank q-quantile of xs (0 for an empty slice);
// for an odd count, q = 0.5 gives the median.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
