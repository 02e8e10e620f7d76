package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hef/internal/engine"
	"hef/internal/hef"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/queries"
	"hef/internal/ssb"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// counters is a snapshot of the counters the simulator, the memo and the
// search export process-wide.
type counters struct {
	Runs        uint64 `json:"runs"`
	Instr       uint64 `json:"instr"`
	FastCycles  uint64 `json:"fast_cycles"`
	SlowCycles  uint64 `json:"slow_cycles"`
	IdleSkipped uint64 `json:"idle_skipped"`
	Replay      uint64 `json:"replay_periods"`
	SkelHits    uint64 `json:"skeleton_hits"`
	SkelMisses  uint64 `json:"skeleton_misses"`
	MemoHits    uint64 `json:"memo_hits"`
	MemoMisses  uint64 `json:"memo_misses"`
	BatchForks  uint64 `json:"batch_forks"`
}

func readCounters() counters {
	t := uarch.Totals()
	mh, mm := memo.Totals()
	return counters{
		Runs: t.Runs, Instr: t.Instructions, FastCycles: t.FastCycles, SlowCycles: t.SlowCycles,
		IdleSkipped: t.IdleSkipped, Replay: t.ReplayPeriods, SkelHits: t.SkeletonHits, SkelMisses: t.SkeletonMisses,
		MemoHits: mh, MemoMisses: mm, BatchForks: hef.BatchForks(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		Runs: c.Runs - o.Runs, Instr: c.Instr - o.Instr, FastCycles: c.FastCycles - o.FastCycles,
		SlowCycles: c.SlowCycles - o.SlowCycles, IdleSkipped: c.IdleSkipped - o.IdleSkipped, Replay: c.Replay - o.Replay,
		SkelHits: c.SkelHits - o.SkelHits, SkelMisses: c.SkelMisses - o.SkelMisses,
		MemoHits: c.MemoHits - o.MemoHits, MemoMisses: c.MemoMisses - o.MemoMisses, BatchForks: c.BatchForks - o.BatchForks,
	}
}

func (c counters) add(o counters) counters {
	return counters{
		Runs: c.Runs + o.Runs, Instr: c.Instr + o.Instr, FastCycles: c.FastCycles + o.FastCycles,
		SlowCycles: c.SlowCycles + o.SlowCycles, IdleSkipped: c.IdleSkipped + o.IdleSkipped, Replay: c.Replay + o.Replay,
		SkelHits: c.SkelHits + o.SkelHits, SkelMisses: c.SkelMisses + o.SkelMisses,
		MemoHits: c.MemoHits + o.MemoHits, MemoMisses: c.MemoMisses + o.MemoMisses, BatchForks: c.BatchForks + o.BatchForks,
	}
}

// deterministic blanks the one split that depends on goroutine timing: two
// workers may both miss the skeleton cache on the same program. The number
// of lookups does not.
func (c counters) deterministic() counters {
	c.SkelHits, c.SkelMisses = c.SkelHits+c.SkelMisses, 0
	return c
}

// span is one timed call into a layer. Parent is the enclosing span's ID
// (0 at top level). Evals counts the candidate evaluations an eval span
// covers (a batch covers several).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
	Worker  int    `json:"worker,omitempty"`
	Evals   int    `json:"evals,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// searchSpan is a traced search: its span and its worker count.
type searchSpan struct {
	id      int64
	workers int
}

// tracer records spans around the calls into each module, in memory; they
// are written out when the run ends. A nil tracer records nothing.
type tracer struct {
	origin   time.Time
	nextID   atomic.Int64
	mu       sync.Mutex
	spans    []span
	searches []searchSpan
	rt0, rt1 runtimeSample
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// span times fn as one top-level span; on a nil tracer it just calls fn.
func (t *tracer) span(name, detail string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id, start := t.nextID.Add(1), t.now()
	fn()
	t.add(span{ID: id, Name: name, Detail: detail, StartNS: start, EndNS: t.now()})
}

func (t *tracer) begin() {
	if t != nil {
		t.rt0 = readRuntime()
	}
}

func (t *tracer) end() {
	if t != nil {
		t.rt1 = readRuntime()
	}
}

// search is core.Framework.OptimizeOperatorContext composed from the same
// public steps — hef.InitialNode, NewSimEvaluator + SetMemo, the search,
// translation of the optimum — with a tracing evaluator in the middle. core
// takes no evaluator, so this is the only way to time evaluations from
// outside.
func (t *tracer) search(key string, cfg searchCfg, tmpl *hid.Template, parallel int, m *memo.Cache) (*hef.Result, error) {
	id, start := t.nextID.Add(1), t.now()
	defer func() {
		t.add(span{ID: id, Name: "core.search", Detail: key, StartNS: start, EndNS: t.now()})
	}()
	t.mu.Lock()
	t.searches = append(t.searches, searchSpan{id: id, workers: max(parallel, 1)})
	t.mu.Unlock()

	initial, err := hef.InitialNode(cfg.cpu, tmpl, cfg.width)
	if err != nil {
		return nil, err
	}
	b := hef.DefaultBounds
	if initial.V > b.VMax || initial.S > b.SMax || initial.P > b.PMax {
		return nil, fmt.Errorf("%s: initial node %v outside the default bounds", key, initial)
	}
	sim := hef.NewSimEvaluator(cfg.cpu, tmpl, cfg.width, cfg.elems)
	sim.SetMemo(m)
	var next atomic.Int32
	ev := &tracedEval{inner: sim, t: t, parent: id, worker: int(next.Add(1)), next: &next}
	res, err := hef.SearchContext(context.Background(), ev, initial, b, hef.SearchOpts{Workers: parallel})
	if err != nil {
		return nil, err
	}
	if _, err := translator.Translate(tmpl, res.Best, cfg.translateOpts()); err != nil {
		return nil, err
	}
	return res, nil
}

// simEvaluator is what tracedEval wraps: hef.SimEvaluator's evaluation,
// batch and fork methods.
type simEvaluator interface {
	hef.BatchEvaluator
	Fork() hef.Evaluator
}

// tracedEval records a span around every evaluation. It forwards Fork and
// EvaluateBatch: without Fork the wave engine would fall back to one worker,
// and without EvaluateBatch the serial walk would never fork batch state.
type tracedEval struct {
	inner  simEvaluator
	t      *tracer
	parent int64
	worker int
	next   *atomic.Int32
}

func (e *tracedEval) Evaluate(n hef.Node) (float64, error) {
	start := e.t.now()
	sec, err := e.inner.Evaluate(n)
	e.t.add(span{ID: e.t.nextID.Add(1), Parent: e.parent, Name: "hef.eval", Detail: n.String(), Worker: e.worker, Evals: 1, StartNS: start, EndNS: e.t.now()})
	return sec, err
}

func (e *tracedEval) EvaluateBatch(ns []hef.Node) ([]float64, error) {
	start := e.t.now()
	secs, err := e.inner.EvaluateBatch(ns)
	e.t.add(span{ID: e.t.nextID.Add(1), Parent: e.parent, Name: "hef.eval", Detail: fmt.Sprintf("batch of %d", len(ns)), Worker: e.worker, Evals: len(secs), StartNS: start, EndNS: e.t.now()})
	return secs, err
}

func (e *tracedEval) Fork() hef.Evaluator {
	f := e.inner.Fork()
	inner, ok := f.(simEvaluator)
	if !ok {
		return f
	}
	return &tracedEval{inner: inner, t: e.t, parent: e.parent, worker: int(e.next.Add(1)), next: e.next}
}

// runtimeSample holds the Go runtime counters the traced run reports.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

var runtimeNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

// postTrace holds the layer timings taken after the traced pass, outside
// its wall time: calls the program makes inside other layers, repeated here
// so they can be timed on their own.
type postTrace struct {
	translateS, fingerprintS float64
	ssbGenerateS, executeS   float64
}

// afterPass times translator.Translate and memo.Fingerprint of every node
// the searches tested, and ssb.Generate plus queries.Execute as often as
// the figures called them.
func (t *tracer) afterPass(p *plan, rec *passRecord) (postTrace, error) {
	var pt postTrace
	for _, out := range rec.outs {
		if s := out.search; s != nil {
			warm := warmRanges(s.tmpl, s.cfg.cpu)
			for _, st := range s.res.Trace {
				t0 := time.Now()
				tr, err := translator.Translate(s.tmpl, st.Node, s.cfg.translateOpts())
				pt.translateS += time.Since(t0).Seconds()
				if err != nil {
					return pt, err
				}
				iters := s.cfg.elems / int64(tr.ElemsPerIter)
				if iters < 1 {
					iters = 1
				}
				t0 = time.Now()
				memo.Fingerprint(memo.ProtoEvaluator, s.cfg.cpu, nil, tr.Program, iters, warm)
				pt.fingerprintS += time.Since(t0).Seconds()
			}
		}
		if out.fig != nil {
			t0 := time.Now()
			data := ssb.Generate(sampleSF, paperSSBSeed)
			pt.ssbGenerateS += time.Since(t0).Seconds()
			for _, q := range queries.Evaluated() {
				t0 := time.Now()
				if _, err := queries.Execute(q, data, engine.Scalar); err != nil {
					return pt, err
				}
				pt.executeS += time.Since(t0).Seconds()
			}
		}
	}
	return pt, nil
}

// warmRanges lists the regions SimEvaluator warms before measuring: every
// random-access parameter that fits in the LLC.
func warmRanges(tmpl *hid.Template, cpu *isa.CPU) []memo.WarmRange {
	var w []memo.WarmRange
	for _, p := range tmpl.Params {
		if p.Pattern == hid.RandomRegion && p.Region > 0 && p.Region <= uint64(cpu.LLC.SizeBytes) {
			w = append(w, memo.WarmRange{Base: translator.ParamBase(tmpl, p.Name), Region: p.Region})
		}
	}
	return w
}

// perLayer lists every per-layer metric with its unit, in report order.
// Metrics that do not apply to a workload are reported as 0.
var perLayer = []struct{ name, unit string }{
	{"experiments.figure_s", "s"},
	{"ssb.generate_s", "s"},
	{"queries.execute_s", "s"},
	{"core.search_s.probe", "s"},
	{"core.search_s.bloom", "s"},
	{"core.search_s.agg", "s"},
	{"core.search_s.murmur", "s"},
	{"core.search_s.crc64", "s"},
	{"core.search_s.filter", "s"},
	{"robust.analyze_s.murmur.silver", "s"},
	{"robust.analyze_s.murmur.gold", "s"},
	{"robust.analyze_s.probe.silver", "s"},
	{"robust.analyze_s.probe.gold", "s"},
	{"hef.evals", "count"},
	{"hef.eval_ms_p50", "ms"},
	{"hef.eval_ms_p90", "ms"},
	{"hef.worker_busy_frac", "ratio"},
	{"hef.self_s", "s"},
	{"hef.batch_forks", "count"},
	{"translator.translate_s", "s"},
	{"memo.fingerprint_s", "s"},
	{"memo.hits", "count"},
	{"memo.misses", "count"},
	{"memo.hit_ratio", "ratio"},
	{"uarch.runs", "count"},
	{"uarch.minstr", "Minstr"},
	{"uarch.fast_cycle_frac", "ratio"},
	{"uarch.idle_skip_frac", "ratio"},
	{"uarch.replay_periods", "count"},
	{"uarch.skeleton_hit_ratio", "ratio"},
	{"uarch.minstr_per_s", "Minstr/s"},
	{"cache.accesses", "count"},
	{"cache.l1_hit_ratio", "ratio"},
	{"cache.llc_miss_ratio", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives every per-layer metric from the traced pass: span
// sums, counter deltas, the post-pass timings, the re-measured optima, and
// the untraced pass's wall time.
func layerMetrics(rec *passRecord, t *tracer, pt postTrace, cs cacheStats, untracedWall float64) []metric {
	v := map[string]float64{}
	var c counters
	for _, o := range rec.Ops {
		c = c.add(o.Counters)
	}
	for _, o := range rec.outs {
		if o.search != nil {
			v["hef.evals"] += float64(o.search.res.Tested)
		}
		if o.sens != nil {
			v["hef.evals"] += float64(o.sens.s.BaselineTested)
			for _, tr := range o.sens.s.Trials {
				v["hef.evals"] += float64(tr.Tested)
			}
		}
	}

	byID := map[int64]span{}
	var simulating float64 // host seconds of spans that run the simulator
	for _, s := range t.spans {
		byID[s.ID] = s
		switch s.Name {
		case "experiments.figure":
			v["experiments.figure_s"] += s.seconds()
			simulating += s.seconds()
		case "core.search":
			v["core.search_s."+s.Detail] += s.seconds()
		case "robust.analyze":
			v["robust.analyze_s."+s.Detail] += s.seconds()
			simulating += s.seconds()
		case "hef.eval", "core.measure":
			simulating += s.seconds()
		}
	}

	// Per-search evaluation statistics: latency percentiles, worker
	// occupancy on the parallel searches, and the search's self time.
	var evalMS []float64
	var busy, capacity float64
	for _, ss := range t.searches {
		parent := byID[ss.id]
		var iv [][2]int64
		var evalSum float64
		for _, s := range t.spans {
			if s.Name != "hef.eval" || s.Parent != ss.id {
				continue
			}
			iv = append(iv, [2]int64{s.StartNS, s.EndNS})
			evalSum += s.seconds()
			for i := 0; i < s.Evals; i++ {
				evalMS = append(evalMS, s.seconds()*1e3/float64(s.Evals))
			}
		}
		v["hef.self_s"] += parent.seconds() - covered(iv)
		if ss.workers > 1 {
			busy += evalSum
			capacity += float64(ss.workers) * parent.seconds()
		}
	}
	v["hef.eval_ms_p50"] = quantile(evalMS, 0.5)
	v["hef.eval_ms_p90"] = quantile(evalMS, 0.9)
	v["hef.worker_busy_frac"] = ratio(busy, capacity)
	v["hef.batch_forks"] = float64(c.BatchForks)

	v["translator.translate_s"] = pt.translateS
	v["memo.fingerprint_s"] = pt.fingerprintS
	v["ssb.generate_s"] = pt.ssbGenerateS
	v["queries.execute_s"] = pt.executeS

	v["memo.hits"] = float64(c.MemoHits)
	v["memo.misses"] = float64(c.MemoMisses)
	v["memo.hit_ratio"] = ratio(float64(c.MemoHits), float64(c.MemoHits+c.MemoMisses))
	v["uarch.runs"] = float64(c.Runs)
	v["uarch.minstr"] = float64(c.Instr) / 1e6
	v["uarch.fast_cycle_frac"] = ratio(float64(c.FastCycles), float64(c.FastCycles+c.SlowCycles))
	v["uarch.idle_skip_frac"] = ratio(float64(c.IdleSkipped), float64(c.SlowCycles))
	v["uarch.replay_periods"] = float64(c.Replay)
	v["uarch.skeleton_hit_ratio"] = ratio(float64(c.SkelHits), float64(c.SkelHits+c.SkelMisses))
	v["uarch.minstr_per_s"] = ratio(float64(c.Instr)/1e6, simulating)

	v["cache.accesses"] = float64(cs.accesses)
	v["cache.l1_hit_ratio"] = ratio(float64(cs.l1Hits), float64(cs.accesses))
	v["cache.llc_miss_ratio"] = ratio(float64(cs.llcMisses), float64(cs.llcHits+cs.llcMisses))

	v["runtime.alloc_mb"] = (t.rt1.allocBytes - t.rt0.allocBytes) / (1 << 20)
	v["runtime.gc_cpu_frac"] = ratio(t.rt1.gcCPU-t.rt0.gcCPU, t.rt1.totalCPU-t.rt0.totalCPU)
	v["trace.overhead_frac"] = ratio(rec.WallS, untracedWall) - 1

	ms := make([]metric, 0, len(perLayer))
	for _, m := range perLayer {
		ms = append(ms, metric{m.name, v[m.name], m.unit})
	}
	return ms
}

// covered is the length in seconds of the union of the intervals.
func covered(iv [][2]int64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return float64(total) / 1e9
}

// write saves the spans, the run context and the metrics as one JSON file
// under dir and returns its path.
func (t *tracer) write(dir string, p *plan, ctx runContext, ms []metric) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	vals := map[string]float64{}
	for _, m := range ms {
		vals[m.name] = m.value
	}
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].StartNS < t.spans[j].StartNS })
	doc := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Size     string             `json:"size"`
		Context  runContext         `json:"context"`
		Metrics  map[string]float64 `json:"metrics"`
		Spans    []span             `json:"spans"`
	}{p.workload, p.seed, p.size, ctx, vals, t.spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", p.workload, p.seed))
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
