package hef_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hef/internal/engine"
	"hef/internal/hef"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/obs"
	"hef/internal/uarch"
)

// serialOnly hides SimEvaluator's EvaluateBatch so SearchContext takes the
// classic per-node path.
type serialOnly struct{ e *hef.SimEvaluator }

func (s serialOnly) Evaluate(n hef.Node) (float64, error) { return s.e.Evaluate(n) }

// withProcs runs fn with GOMAXPROCS set to n, the width EvaluateBatch
// measures siblings at.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// forkTally forwards to a SimEvaluator and adds up the forks each
// EvaluateBatch call must make: one fewer than the siblings it measured,
// which are the memo's new misses or, without a memo, every sibling costed.
type forkTally struct {
	*hef.SimEvaluator
	cache     *memo.Cache
	wantForks uint64
}

func (f *forkTally) EvaluateBatch(ns []hef.Node) ([]float64, error) {
	var before memo.Stats
	if f.cache != nil {
		before = f.cache.Stats()
	}
	secs, err := f.SimEvaluator.EvaluateBatch(ns)
	measured := uint64(len(secs))
	if f.cache != nil {
		measured = f.cache.Stats().Misses - before.Misses
	}
	if measured > 0 {
		f.wantForks += measured - 1
	}
	return secs, err
}

// TestBatchSearchSimEvaluatorBytes is the production-shaped determinism
// check for batch evaluation: a full pruning search must serialize
// (obs.SearchJSON) to the same bytes whether SimEvaluator measured siblings
// one at a time or batched with the shared post-warm state forked from a
// snapshot, and whether the batch measured its siblings concurrently
// (GOMAXPROCS 4) or one after another (GOMAXPROCS 1). Every batch must fork
// once per sibling after its first. The probe template carries a warmed
// hash table, so the snapshot actually holds warmed lines; the filter
// template pins the empty-warm case.
func TestBatchSearchSimEvaluatorBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six full searches")
	}
	cpu, err := isa.ByName("silver")
	if err != nil {
		t.Fatal(err)
	}
	const elems = 1 << 12
	for _, tc := range []struct {
		name string
		tmpl *hid.Template
	}{
		{"probe", engine.ProbeTemplate(1 << 20)},
		{"filter", engine.FilterTemplate(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			initial, err := hef.InitialNode(cpu, tc.tmpl, cpu.NativeWidth())
			if err != nil {
				t.Fatal(err)
			}
			run := func(batch bool) (js []byte, forks, wantForks uint64) {
				t.Helper()
				sim := hef.NewSimEvaluator(cpu, tc.tmpl, cpu.NativeWidth(), elems)
				tally := &forkTally{SimEvaluator: sim}
				var eval hef.Evaluator = tally
				if !batch {
					eval = serialOnly{sim}
				}
				forksBefore := hef.BatchForks()
				res, err := hef.Search(eval, initial, hef.DefaultBounds)
				if err != nil {
					t.Fatalf("batch=%v: %v", batch, err)
				}
				js, err = obs.SearchJSON(res)
				if err != nil {
					t.Fatalf("batch=%v: marshal: %v", batch, err)
				}
				return js, hef.BatchForks() - forksBefore, tally.wantForks
			}
			serial, forks, _ := run(false)
			if forks != 0 {
				t.Error("per-node search forked batch state")
			}
			for _, procs := range []int{4, 1} {
				var batched []byte
				var forks, want uint64
				withProcs(procs, func() { batched, forks, want = run(true) })
				if !bytes.Equal(serial, batched) {
					t.Errorf("GOMAXPROCS %d: SearchJSON bytes diverged between per-node and batched evaluation", procs)
				}
				if want == 0 || forks != want {
					t.Errorf("GOMAXPROCS %d: batched search forked %d times, want %d (> 0)", procs, forks, want)
				}
			}
		})
	}
}

// memoSearch runs a full search, batched at GOMAXPROCS procs or, with
// procs 0, node by node, on a memo that a budget-capped search has partly
// filled, so batches mix hits and misses. It returns the search bytes, the
// memo counters the full search added, its Evaluations, its forks and the
// forks its batches' misses call for.
func memoSearch(t *testing.T, procs int) (js []byte, st memo.Stats, evals int, forks, wantForks uint64) {
	t.Helper()
	cpu, err := isa.ByName("silver")
	if err != nil {
		t.Fatal(err)
	}
	tmpl := engine.ProbeTemplate(1 << 20)
	initial, err := hef.InitialNode(cpu, tmpl, cpu.NativeWidth())
	if err != nil {
		t.Fatal(err)
	}
	cache := memo.NewCache()
	pre := hef.NewSimEvaluator(cpu, tmpl, cpu.NativeWidth(), 1<<12)
	pre.SetMemo(cache)
	if _, err := hef.SearchContext(context.Background(), serialOnly{pre}, initial, hef.DefaultBounds,
		hef.SearchOpts{MaxEvaluations: 9}); !errors.Is(err, hef.ErrBudgetExhausted) {
		t.Fatalf("budget-capped search: %v", err)
	}
	before := cache.Stats()
	ev := hef.NewSimEvaluator(cpu, tmpl, cpu.NativeWidth(), 1<<12)
	ev.SetMemo(cache)
	tally := &forkTally{SimEvaluator: ev, cache: cache}
	var eval hef.Evaluator = tally
	if procs == 0 {
		eval, procs = serialOnly{ev}, runtime.GOMAXPROCS(0)
	}
	forksBefore := hef.BatchForks()
	withProcs(procs, func() {
		res, err := hef.Search(eval, initial, hef.DefaultBounds)
		if err != nil {
			t.Fatal(err)
		}
		if js, err = obs.SearchJSON(res); err != nil {
			t.Fatal(err)
		}
	})
	after := cache.Stats()
	st = memo.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses, Entries: after.Entries - before.Entries}
	return js, st, ev.Evaluations, hef.BatchForks() - forksBefore, tally.wantForks
}

// TestConcurrentBatchMemoCounts: on a partly filled memo, the batched
// search must leave the same bytes, memo hits and misses and Evaluations as
// the per-node search, at GOMAXPROCS 4 and 1, and fork once per missing
// sibling after each batch's first.
func TestConcurrentBatchMemoCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six searches")
	}
	jsN, stN, evN, _, _ := memoSearch(t, 0)
	if stN.Hits == 0 || stN.Misses == 0 {
		t.Fatalf("per-node search memo counters %+v: want both hits and misses", stN)
	}
	for _, procs := range []int{4, 1} {
		js, st, ev, forks, want := memoSearch(t, procs)
		if !bytes.Equal(jsN, js) {
			t.Errorf("GOMAXPROCS %d: SearchJSON bytes diverged between the batched and the per-node search", procs)
		}
		if st != stN || ev != evN {
			t.Errorf("GOMAXPROCS %d: memo %+v evals %d, per-node search %+v evals %d", procs, st, ev, stN, evN)
		}
		if want == 0 || forks != want {
			t.Errorf("GOMAXPROCS %d: forked %d times, want %d (> 0)", procs, forks, want)
		}
	}
}

// batchFixture is a memoized evaluator for the probe template and a set of
// distinct valid nodes.
func batchFixture(t *testing.T) (*hef.SimEvaluator, *memo.Cache, []hef.Node) {
	t.Helper()
	cpu, err := isa.ByName("silver")
	if err != nil {
		t.Fatal(err)
	}
	ev := hef.NewSimEvaluator(cpu, engine.ProbeTemplate(1<<20), cpu.NativeWidth(), 1<<12)
	cache := memo.NewCache()
	ev.SetMemo(cache)
	return ev, cache, []hef.Node{{V: 1, S: 1, P: 1}, {V: 1, S: 2, P: 1}, {V: 2, S: 1, P: 1}, {V: 1, S: 1, P: 2}}
}

// nodeCosts is the per-node cost of each of ns on a fresh evaluator, the
// reference every batch must reproduce.
func nodeCosts(t *testing.T, ns []hef.Node) []float64 {
	t.Helper()
	ev, _, _ := batchFixture(t)
	ev.SetMemo(nil)
	secs := make([]float64, len(ns))
	for i, n := range ns {
		var err error
		if secs[i], err = ev.Evaluate(n); err != nil {
			t.Fatal(err)
		}
	}
	return secs
}

// TestConcurrentBatchRepeatIsMemoHit: a node repeated within one batch is
// measured once; the repeat is served as a memo hit after the first
// occurrence is stored.
func TestConcurrentBatchRepeatIsMemoHit(t *testing.T) {
	_, _, n := batchFixture(t)
	batch := []hef.Node{n[0], n[1], n[0], n[2]}
	want := nodeCosts(t, batch)
	for _, procs := range []int{4, 1} {
		ev, cache, _ := batchFixture(t)
		forksBefore := hef.BatchForks()
		var secs []float64
		var err error
		withProcs(procs, func() { secs, err = ev.EvaluateBatch(batch) })
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if st, w := cache.Stats(), (memo.Stats{Hits: 1, Misses: 3, Entries: 3}); st != w {
			t.Errorf("GOMAXPROCS %d: memo counters %+v, want %+v", procs, st, w)
		}
		if forks := hef.BatchForks() - forksBefore; ev.Evaluations != 4 || forks != 2 {
			t.Errorf("GOMAXPROCS %d: Evaluations %d, forks %d; want 4 and 2", procs, ev.Evaluations, forks)
		}
		if !reflect.DeepEqual(secs, want) {
			t.Errorf("GOMAXPROCS %d: costs %v, per-node %v", procs, secs, want)
		}
	}
}

// TestConcurrentBatchStopsAtFailure: when the third sibling fails, the
// batch returns the first two costs and that sibling's error, and the memo
// holds nothing measured after it.
func TestConcurrentBatchStopsAtFailure(t *testing.T) {
	_, _, n := batchFixture(t)
	want := nodeCosts(t, n[:2])
	bad := hef.Node{V: 0, S: 0, P: 1}
	for _, procs := range []int{4, 1} {
		ev, cache, _ := batchFixture(t)
		forksBefore := hef.BatchForks()
		var secs []float64
		var err error
		withProcs(procs, func() { secs, err = ev.EvaluateBatch([]hef.Node{n[0], n[1], bad, n[2], n[3]}) })
		if err == nil || !strings.Contains(err.Error(), "invalid node") || !reflect.DeepEqual(secs, want) {
			t.Fatalf("GOMAXPROCS %d: costs %v and error %v; want %v and the third sibling's error", procs, secs, err, want)
		}
		forks := hef.BatchForks() - forksBefore
		if st := cache.Stats(); st.Entries != 2 || ev.Evaluations != 2 || forks != 1 {
			t.Errorf("GOMAXPROCS %d: memo %+v, Evaluations %d, forks %d: want 2 entries, 2 evaluations, 1 fork", procs, st, ev.Evaluations, forks)
		}
	}
}

// TestTracedBatchBypassesMemo: with a trace log attached the batch neither
// reads nor fills the memo, measures a repeated node twice, and costs what
// the per-node path does.
func TestTracedBatchBypassesMemo(t *testing.T) {
	_, _, n := batchFixture(t)
	batch := []hef.Node{n[0], n[1], n[0]}
	want := nodeCosts(t, batch)
	ev, cache, _ := batchFixture(t)
	ev.SetTraceLog(&uarch.TraceLog{Limit: 1})
	forksBefore := hef.BatchForks()
	var secs []float64
	var err error
	withProcs(4, func() { secs, err = ev.EvaluateBatch(batch) })
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st != (memo.Stats{}) {
		t.Errorf("traced batch touched the memo: %+v", st)
	}
	if forks := hef.BatchForks() - forksBefore; ev.Evaluations != 3 || forks != 2 {
		t.Errorf("Evaluations %d, forks %d; want 3 and 2", ev.Evaluations, forks)
	}
	if !reflect.DeepEqual(secs, want) {
		t.Errorf("costs %v, per-node %v", secs, want)
	}
}

// TestConcurrentBatchPerturbReachesHelpers: a perturbation installed after
// a concurrent batch has created its helper simulators must apply to them,
// so the next batch costs what the per-node path measures under that
// perturbation.
func TestConcurrentBatchPerturbReachesHelpers(t *testing.T) {
	p := &uarch.Perturb{Seed: 3, LatJitter: 0.2, OccJitter: 0.2}
	ev, _, n := batchFixture(t)
	ev.SetMemo(nil)
	var secs []float64
	var err error
	withProcs(4, func() {
		if _, err = ev.EvaluateBatch(n); err != nil {
			return
		}
		ev.SetPerturb(p)
		secs, err = ev.EvaluateBatch(n)
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, _ := batchFixture(t)
	ref.SetMemo(nil)
	ref.SetPerturb(p)
	for i, nd := range n {
		want, err := ref.Evaluate(nd)
		if err != nil {
			t.Fatal(err)
		}
		if secs[i] != want {
			t.Errorf("sibling %d: perturbed batch cost %v, per-node %v", i, secs[i], want)
		}
	}
}

// TestSharedWarmWaveSearchBytes: a wave search of bloom, whose filter is
// warmed before every measurement, on two workers — the evaluator and its
// fork starting from one shared warm state, built by whichever measures
// first — must serialize to the same bytes as the per-node search on a
// fresh evaluator.
func TestSharedWarmWaveSearchBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full searches")
	}
	cpu, err := isa.ByName("silver")
	if err != nil {
		t.Fatal(err)
	}
	tmpl := engine.BloomTemplate(1 << 20)
	initial, err := hef.InitialNode(cpu, tmpl, cpu.NativeWidth())
	if err != nil {
		t.Fatal(err)
	}
	search := func(eval hef.Evaluator, workers int) []byte {
		t.Helper()
		res, err := hef.SearchContext(t.Context(), eval, initial, hef.DefaultBounds, hef.SearchOpts{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		js, err := obs.SearchJSON(res)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	perNode := search(serialOnly{hef.NewSimEvaluator(cpu, tmpl, cpu.NativeWidth(), 1<<12)}, 0)
	var wave []byte
	withProcs(2, func() { wave = search(hef.NewSimEvaluator(cpu, tmpl, cpu.NativeWidth(), 1<<12), 2) })
	if !bytes.Equal(perNode, wave) {
		t.Error("SearchJSON bytes diverged between the per-node search and the two-worker wave search")
	}
}

// TestSharedWarmPerturbedLineage: on a perturbed machine (cache-latency
// jitter in the CPU model, instruction jitter through SetPerturb), a fork
// that builds the lineage's warm state and the original's batch helpers
// that restore it must cost every node as a perturbed per-node evaluator
// of its own does, and the batches must fork once per miss after the
// first.
func TestSharedWarmPerturbedLineage(t *testing.T) {
	p := &uarch.Perturb{Seed: 5, LatJitter: 0.2, OccJitter: 0.2, CacheJitter: 0.2}
	cpu := p.CPU(isa.XeonSilver4110())
	tmpl := engine.ProbeTemplate(1 << 20)
	newEval := func() *hef.SimEvaluator {
		ev := hef.NewSimEvaluator(cpu, tmpl, cpu.NativeWidth(), 1<<12)
		ev.SetPerturb(p)
		return ev
	}
	_, _, n := batchFixture(t)
	ref := newEval()
	want := make([]float64, len(n))
	for i, nd := range n {
		var err error
		if want[i], err = ref.Evaluate(nd); err != nil {
			t.Fatal(err)
		}
	}

	ev := newEval()
	fork := ev.Fork()
	for i, nd := range n {
		got, err := fork.Evaluate(nd)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Errorf("fork: node %v costs %v, per-node %v", nd, got, want[i])
		}
	}
	tally := &forkTally{SimEvaluator: ev}
	forksBefore := hef.BatchForks()
	var secs []float64
	var err error
	withProcs(4, func() { secs, err = tally.EvaluateBatch(n) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(secs, want) {
		t.Errorf("batch on helpers: costs %v, per-node %v", secs, want)
	}
	if forks := hef.BatchForks() - forksBefore; tally.wantForks == 0 || forks != tally.wantForks {
		t.Errorf("batch forked %d times, want %d (> 0)", forks, tally.wantForks)
	}
}
