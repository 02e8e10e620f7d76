package hef

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"hef/internal/cache"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// Evaluator measures one candidate node's execution time. The framework's
// optimizer only compares times, so any monotone cost works; the production
// implementation is SimEvaluator.
type Evaluator interface {
	// Evaluate returns the seconds-per-element cost of the node.
	Evaluate(n Node) (float64, error)
}

// BatchEvaluator is implemented by evaluators that can measure a group of
// sibling candidates — the fresh neighbors of one search expansion, whose
// measurements are independent and share a common prefix — faster than one
// at a time, by sharing the prefix, by measuring siblings concurrently, or
// both. EvaluateBatch must return costs identical to calling Evaluate on
// each node in order. On error, the returned slice holds the costs of the
// nodes evaluated before the failure and the error pertains to
// ns[len(secs)].
type BatchEvaluator interface {
	Evaluator
	EvaluateBatch(ns []Node) (secs []float64, err error)
}

// batchForks counts the sibling measurements of each batch after its
// first: the ones that fork the batch's shared starting state. The
// telemetry layer polls it through BatchForks.
var batchForks atomic.Uint64

// BatchForks reports the number of batch-evaluation state forks since
// process start.
func BatchForks() uint64 { return batchForks.Load() }

// SimEvaluator translates the operator template at a node and times it on
// the microarchitecture simulator — the analogue of the paper's
// compile-and-run test step (Algorithm 2 lines 4-5).
type SimEvaluator struct {
	cpu     *isa.CPU
	tmpl    *hid.Template
	width   isa.Width
	elems   int64
	sim     *uarch.Sim
	perturb *uarch.Perturb
	memo    *memo.Cache
	traced  bool

	// warm is the hierarchy state every measurement starts from, shared by
	// the evaluator, its forks and its helpers and built by whichever
	// measures first. helpers are the extra simulators a batch measures
	// siblings on, created on first use and kept for the evaluator's
	// lifetime.
	warm    *cache.WarmState
	helpers []*uarch.Sim

	// Evaluations counts Evaluate calls, for pruning-savings reports.
	Evaluations int
}

// DefaultTestElems is the synthetic test size for one evaluation: large
// enough to reach steady state, small enough to keep the offline search
// fast.
const DefaultTestElems = 1 << 14

// NewSimEvaluator builds an evaluator for tmpl on cpu at the given SIMD
// width (0 selects AVX-512). elems <= 0 selects DefaultTestElems.
func NewSimEvaluator(cpu *isa.CPU, tmpl *hid.Template, width isa.Width, elems int64) *SimEvaluator {
	if width == 0 {
		width = isa.W512
	}
	if elems <= 0 {
		elems = DefaultTestElems
	}
	return &SimEvaluator{cpu: cpu, tmpl: tmpl, width: width, elems: elems, sim: uarch.NewSim(cpu),
		warm: cache.NewWarmState(warmRanges(cpu, tmpl))}
}

// SetTraceLog attaches a per-instruction lifecycle recorder to the
// evaluator's simulator (nil detaches). Note the warm-up run is recorded
// too; bound the log with TraceLog.Limit when that matters. While a trace
// is attached the memo cache is bypassed: a cached result would leave the
// log empty.
func (e *SimEvaluator) SetTraceLog(t *uarch.TraceLog) {
	e.traced = t != nil
	e.sim.SetTraceLog(t)
}

// SetMemo attaches a content-addressed measurement cache (nil detaches).
// Runs whose fingerprint — machine model, perturbation, translated program,
// iteration count, warmed regions — is already cached return the stored
// Result without simulating. The cache is concurrency-safe and is shared
// with forks, so a parallel search populates it for later operators,
// trials, and benchmark stages.
func (e *SimEvaluator) SetMemo(c *memo.Cache) { e.memo = c }

// SetPerturb installs a fault-injection model on the evaluator's simulator
// (nil removes it); see uarch.Sim.SetPerturb. The sensitivity driver uses
// this to re-run the search on perturbed machines.
func (e *SimEvaluator) SetPerturb(p *uarch.Perturb) {
	e.perturb = p
	e.sim.SetPerturb(p)
	for _, h := range e.helpers {
		h.SetPerturb(p)
	}
}

// Fork implements ForkableEvaluator: the clone measures nodes identically
// (same CPU model, template, width, test size, and perturbation) on its own
// fresh simulator, so forks are safe to run concurrently. It shares the
// original's warm state, so the lineage warms its working set once. Trace
// logs do not carry over (a shared log would interleave
// nondeterministically); the fork's Evaluations counter starts at zero.
func (e *SimEvaluator) Fork() Evaluator {
	f := &SimEvaluator{cpu: e.cpu, tmpl: e.tmpl, width: e.width, elems: e.elems, sim: uarch.NewSim(e.cpu), warm: e.warm}
	f.SetPerturb(e.perturb)
	f.SetMemo(e.memo)
	return f
}

// Evaluate implements Evaluator.
func (e *SimEvaluator) Evaluate(n Node) (float64, error) {
	res, err := e.Run(n)
	if err != nil {
		return 0, err
	}
	return cost(n, res)
}

// cost is the seconds-per-element cost of a measurement of n.
func cost(n Node, res *uarch.Result) (float64, error) {
	if res.Elems == 0 {
		return 0, fmt.Errorf("hef: node %v processed no elements", n)
	}
	return res.Seconds() / float64(res.Elems), nil
}

// EvaluateBatch implements BatchEvaluator: the sibling candidates of one
// search expansion all start from the evaluator's warm state, so they are
// independent measurements. Siblings are measured concurrently,
// min(GOMAXPROCS, len(ns)) at a time, on the evaluator's own simulator and
// on helper simulators of the same machine; with a trace log attached they
// run one at a time on the evaluator's simulator. Results are
// bit-identical to serial Evaluate calls, and the Evaluations count, the
// memo's hit and miss counts and the number of forks (BatchForks) match
// what the batch would count measuring its siblings one at a time.
//
// The memo is consulted in sibling order: every sibling is looked up before
// any is measured, except that a sibling whose key repeats an earlier
// missing one is looked up after that one's result is stored. Every miss
// after the first forks the warm state, so the batch makes misses − 1
// forks. Results are stored, and costs returned, in sibling order up to the first
// failure; once a sibling fails, no sibling is started after it.
func (e *SimEvaluator) EvaluateBatch(ns []Node) ([]float64, error) {
	if err := e.sim.Err(); err != nil {
		return nil, err
	}
	useMemo := e.memo != nil && !e.traced
	sibs := make([]sibling, 0, len(ns))
	var stop error // the translation failure of ns[len(sibs)], if any
	var jobs []int
	for _, n := range ns {
		sb := sibling{dup: -1}
		if _, stop = safeEvaluate(evalFunc(func(n Node) (float64, error) {
			var err error
			sb.m, err = e.prepare(n)
			return 0, err
		}), n); stop != nil {
			break
		}
		if useMemo {
			j := slices.IndexFunc(sibs, func(o sibling) bool { return o.m.key == sb.m.key })
			if j >= 0 && sibs[j].miss {
				sb.dup = j
			} else {
				sb.res, _ = e.memo.Get(sb.m.key)
			}
		}
		if sb.dup < 0 && sb.res == nil {
			sb.miss = true
			jobs = append(jobs, len(sibs))
		}
		sibs = append(sibs, sb)
	}
	if len(jobs) > 0 {
		e.measureJobs(ns, sibs, jobs)
	}

	secs := make([]float64, 0, len(sibs))
	for i := range sibs {
		sb := &sibs[i]
		if sb.forked {
			batchForks.Add(1)
		}
		if sb.evaluated || !sb.miss {
			e.Evaluations++
		}
		if sb.err != nil {
			return secs, sb.err
		}
		switch {
		case sb.miss && useMemo:
			e.memo.Put(sb.m.key, sb.res)
		case sb.dup >= 0:
			// A one-at-a-time batch looks a repeat up after storing its
			// first occurrence, and hits.
			e.memo.Get(sb.m.key)
			sb.res = sibs[sb.dup].res
		}
		sec, err := cost(ns[i], sb.res)
		if err != nil {
			return secs, err
		}
		secs = append(secs, sec)
	}
	return secs, stop
}

// sibling is one node of a batch.
type sibling struct {
	m   measurement
	res *uarch.Result
	// miss marks a sibling measured in this batch. dup is the index of the
	// earlier missing sibling with the same memo key, or -1; a duplicate is
	// served from the memo once that sibling's result is stored.
	miss bool
	dup  int
	// forked marks a miss measured after the batch's first; evaluated, one
	// whose throwaway run succeeded. Both are tallied in sibling order.
	forked, evaluated bool
	err               error
}

// measureJobs measures the missing siblings sibs[jobs[k]] on up to
// GOMAXPROCS simulators (one when traced), taking jobs in order, each from
// the warm state. Job 0 runs on the evaluator's own simulator. No job is
// started once one has failed.
func (e *SimEvaluator) measureJobs(ns []Node, sibs []sibling, jobs []int) {
	width := min(runtime.GOMAXPROCS(0), len(jobs))
	if e.traced {
		width = 1
	}
	for len(e.helpers) < width-1 {
		h := uarch.NewSim(e.cpu)
		h.SetPerturb(e.perturb)
		e.helpers = append(e.helpers, h)
	}
	var failed atomic.Bool
	run := func(sim *uarch.Sim, k int) {
		sb := &sibs[jobs[k]]
		_, sb.err = safeEvaluate(evalFunc(func(Node) (float64, error) {
			sb.forked = k > 0
			var err error
			sb.res, err = e.measure(sim, &sb.m, func() { sb.evaluated = true })
			return 0, err
		}), ns[jobs[k]])
		if sb.err != nil {
			failed.Store(true)
		}
	}
	var next atomic.Int64
	next.Store(1)
	drain := func(sim *uarch.Sim) {
		for !failed.Load() {
			k := int(next.Add(1) - 1)
			if k >= len(jobs) {
				return
			}
			run(sim, k)
		}
	}
	var wg sync.WaitGroup
	for _, h := range e.helpers[:width-1] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain(h)
		}()
	}
	run(e.sim, 0)
	drain(e.sim)
	wg.Wait()
}

// evalFunc adapts a function to Evaluator, so that one step of a batch runs
// under safeEvaluate's panic recovery.
type evalFunc func(Node) (float64, error)

func (f evalFunc) Evaluate(n Node) (float64, error) { return f(n) }

// measurement is a node's translated program, its iteration count and the
// memo key of its measurement.
type measurement struct {
	prog  *uarch.Program
	iters int64
	key   memo.Key
}

// prepare translates n and, when a memo is in use, fingerprints its
// measurement.
func (e *SimEvaluator) prepare(n Node) (measurement, error) {
	out, err := translator.Translate(e.tmpl, n, translator.Options{Width: e.width, CPU: e.cpu})
	if err != nil {
		return measurement{}, err
	}
	m := measurement{prog: out.Program, iters: max(e.elems/int64(out.ElemsPerIter), 1)}
	if e.memo != nil && !e.traced {
		m.key = memo.Fingerprint(memo.ProtoEvaluator, e.cpu, e.perturb, m.prog, m.iters, e.warm.Ranges())
	}
	return m, nil
}

// measure runs m on sim from the warm state: one throwaway run to settle
// the stream prefetcher, then the measured run. settled is called between
// the two, the point at which the node counts in Evaluations.
//
// Every node is measured under identical cache conditions: a reset
// hierarchy with the LLC-fitting random regions (hash tables, lookup
// tables) warmed. Without the reset, lines touched by earlier candidates
// would stay resident and bias later candidates. The warm state is built
// once per evaluator lineage and restored for every later measurement.
func (e *SimEvaluator) measure(sim *uarch.Sim, m *measurement, settled func()) (*uarch.Result, error) {
	if err := e.warm.Apply(sim.Hierarchy()); err != nil {
		return nil, err
	}
	if _, err := sim.Run(m.prog, m.iters); err != nil {
		return nil, err
	}
	settled()
	return sim.Run(m.prog, m.iters)
}

// Run translates and simulates the node from the lineage's warm state,
// returning the full counter set (used by the experiment harness for the
// paper's tables).
func (e *SimEvaluator) Run(n Node) (*uarch.Result, error) {
	if err := e.sim.Err(); err != nil {
		return nil, err
	}
	m, err := e.prepare(n)
	if err != nil {
		return nil, err
	}
	// The whole measurement protocol below is a pure function of the
	// fingerprinted inputs, so a cached Result is exact, not approximate.
	useMemo := e.memo != nil && !e.traced
	if useMemo {
		if res, ok := e.memo.Get(m.key); ok {
			e.Evaluations++
			return res, nil
		}
	}
	res, err := e.measure(e.sim, &m, func() { e.Evaluations++ })
	if err == nil && useMemo {
		e.memo.Put(m.key, res)
	}
	return res, err
}

// warmRanges lists the regions warmed before every measurement of tmpl on
// cpu: every random-access template parameter that fits in the LLC, in
// parameter order. The list is part of the memo fingerprint.
func warmRanges(cpu *isa.CPU, tmpl *hid.Template) []memo.WarmRange {
	var w []memo.WarmRange
	for _, p := range tmpl.Params {
		if p.Pattern == hid.RandomRegion && p.Region > 0 && p.Region <= uint64(cpu.LLC.SizeBytes) {
			w = append(w, memo.WarmRange{Base: translator.ParamBase(tmpl, p.Name), Region: p.Region})
		}
	}
	return w
}
