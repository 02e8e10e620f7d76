package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"hef/internal/core"
	"hef/internal/experiments"
	"hef/internal/hef"
	"hef/internal/translator"
)

// asMainEnv makes the test binary act as the benchmark when the traced run
// and the set-up timer start it as a child process.
const asMainEnv = "HEFBENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	// LookupEnv, not Getenv: a child started with no arguments must still
	// run as the benchmark rather than re-run the suite.
	if _, ok := os.LookupEnv(asMainEnv); ok {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Setenv(asMainEnv, "1")
	os.Exit(m.Run())
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runBench runs the benchmark in-process on the shrunken (smoke) workload
// and decodes its result line.
func runBench(t *testing.T, workload string, seed string, trace string) result {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"-workload", workload, "-seed", seed, "-seconds", "1", "-trace", trace, "-root", ".."}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%v exited %d: %s", args, code, errb.String())
	}
	var r result
	if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
		t.Fatalf("%v: decoding result: %v\n%s", args, err, out.String())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%v: correct=%v attempted=%d failed=%d: %s", args, r.Correct, r.Attempted, r.Failed, errb.String())
	}
	return r
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayerNames []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayerNames = append(perLayerNames, m.Name)
	}
	return endToEnd, perLayerNames
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	e2e, layer := declared(t)
	seen := map[string]bool{}
	for _, n := range append(append([]string{}, e2e...), layer...) {
		if !valid.MatchString(n) {
			t.Errorf("metric name %q uses characters other than letters, digits, _, . and -", n)
		}
		if seen[n] {
			t.Errorf("metric %q declared twice", n)
		}
		seen[n] = true
	}
	var emitted []string
	for _, m := range perLayer {
		emitted = append(emitted, m.name)
	}
	if !reflect.DeepEqual(emitted, layer) {
		t.Errorf("per-layer metrics emitted %v, BENCHMARK.json declares %v", emitted, layer)
	}
}

// simulatedMetric reports whether a per-layer metric counts simulated
// work; those must repeat exactly across runs at one seed.
func simulatedMetric(name string) bool {
	switch name {
	case "uarch.minstr", "uarch.runs", "memo.hits", "memo.misses", "memo.hit_ratio",
		"hef.evals", "hef.batch_forks", "cache.accesses", "cache.l1_hit_ratio", "cache.llc_miss_ratio":
		return true
	}
	return false
}

// TestWorkloadsEmitEveryMetric runs every workload, shrunken, untraced at
// the default seed and traced twice at another seed: each run must pass its
// own checks and emit every declared metric, and the simulated counters
// must repeat exactly.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layer := declared(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			r := runBench(t, w, "1", "0")
			for _, n := range e2e {
				m, ok := r.Metrics[n]
				if !ok || m.Value <= 0 {
					t.Errorf("end-to-end metric %s missing or not positive: %+v", n, m)
				}
			}
			if len(r.Metrics) != len(e2e) {
				t.Errorf("untraced run emitted %d metrics, want %d", len(r.Metrics), len(e2e))
			}
			a, b := runBench(t, w, "7", "1"), runBench(t, w, "7", "1")
			for _, n := range layer {
				if _, ok := a.Metrics[n]; !ok {
					t.Errorf("per-layer metric %s missing", n)
				}
				if simulatedMetric(n) && a.Metrics[n] != b.Metrics[n] {
					t.Errorf("%s: %v then %v at one seed", n, a.Metrics[n].Value, b.Metrics[n].Value)
				}
			}
			if a.Metrics["uarch.runs"].Value == 0 {
				t.Errorf("traced run simulated nothing")
			}
		})
	}
}

// TestTracedEvaluatorMatchesCore checks that wrapping the evaluator leaves
// the search untouched: the same hef.Result, batch forks and simulator
// counters as the unwrapped search, serial and on the wave engine.
func TestTracedEvaluatorMatchesCore(t *testing.T) {
	cfg, err := silverSearch()
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := experiments.OpTemplate("murmur")
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{0, 2} {
		c0 := readCounters()
		want, err := cfg.fw.OptimizeOperatorContext(context.Background(), tmpl, core.OptimizeOptions{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		c1 := readCounters()
		tr := newTracer()
		got, err := tr.search("murmur", cfg, tmpl, parallel, nil)
		if err != nil {
			t.Fatal(err)
		}
		c2 := readCounters()
		if !reflect.DeepEqual(got, want.Search) {
			t.Errorf("parallel=%d: traced search %+v, core %+v", parallel, got, want.Search)
		}
		plain, traced := c1.sub(c0).deterministic(), c2.sub(c1).deterministic()
		if plain != traced {
			t.Errorf("parallel=%d: counters traced %+v, core %+v", parallel, traced, plain)
		}
		if parallel == 0 && traced.BatchForks == 0 {
			t.Errorf("serial search forked no batch state: EvaluateBatch not forwarded")
		}
		workersSeen := map[int]bool{}
		for _, s := range tr.spans {
			if s.Name == "hef.eval" {
				workersSeen[s.Worker] = true
			}
		}
		if want := max(parallel, 1); len(workersSeen) != want {
			t.Errorf("parallel=%d: evaluations ran on %d workers, want %d: Fork not forwarded", parallel, len(workersSeen), want)
		}
	}
}

// TestStreamingTemplateSameWork checks that the seed varies the streaming
// operators' constants but not their generated code's cost.
func TestStreamingTemplateSameWork(t *testing.T) {
	cfg, err := silverSearch()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"murmur", "filter"} {
		base, err := streamingTemplate(name, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		builtin, _ := experiments.OpTemplate(name)
		if !reflect.DeepEqual(base, builtin) {
			t.Errorf("%s: seed %d does not give the built-in template", name, defaultSeed)
		}
		varied, err := streamingTemplate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(varied.Consts, base.Consts) {
			t.Errorf("%s: seed 7 left the constants unchanged", name)
		}
		n := hef.Node{V: 1, S: 2, P: 2}
		a, err := translator.Translate(base, n, cfg.translateOpts())
		if err != nil {
			t.Fatal(err)
		}
		b, err := translator.Translate(varied, n, cfg.translateOpts())
		if err != nil {
			t.Fatal(err)
		}
		ea := hef.NewSimEvaluator(cfg.cpu, base, cfg.width, 1<<12)
		eb := hef.NewSimEvaluator(cfg.cpu, varied, cfg.width, 1<<12)
		ca, err := ea.Evaluate(n)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := eb.Evaluate(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Program.Body) != len(b.Program.Body) || ca != cb {
			t.Errorf("%s: seed 7 changes the work: %d vs %d instructions, %g vs %g s/elem", name, len(a.Program.Body), len(b.Program.Body), ca, cb)
		}
	}
}
