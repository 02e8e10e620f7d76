// Package experiments regenerates every table and figure of the paper's
// evaluation section. Each experiment combines a functional run (the query
// executor at a sampled scale factor, which yields correct answers and
// per-stage cardinalities) with the timing model (stage operator templates,
// translated per engine and run on the microarchitecture simulator with
// hash-table regions sized for the nominal scale factor), extrapolated
// linearly to nominal row counts. DESIGN.md's per-experiment index maps each
// paper artifact to its driver here.
package experiments

import (
	"fmt"
	"sync"

	"hef/internal/cache"
	"hef/internal/engine"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/queries"
	"hef/internal/ssb"
	"hef/internal/translator"
	"hef/internal/uarch"
	"hef/internal/voila"
)

// EngineKind identifies the four execution engines of Figs. 8-10.
type EngineKind int

const (
	// KindScalar is the purely scalar implementation.
	KindScalar EngineKind = iota
	// KindSIMD is the purely AVX-512 implementation.
	KindSIMD
	// KindVoila is the Voila comparator model (vector(1024) FSM interpreter
	// with prefetch and materialised intermediates).
	KindVoila
	// KindHybrid is the HEF hybrid execution at the paper's SSB optimum,
	// one SIMD + one scalar statement with pack 3 (Section V-B).
	KindHybrid
)

// AllEngines lists the engines in the order the paper's figures plot them.
var AllEngines = []EngineKind{KindScalar, KindSIMD, KindVoila, KindHybrid}

func (k EngineKind) String() string {
	switch k {
	case KindScalar:
		return "Scalar"
	case KindSIMD:
		return "SIMD"
	case KindVoila:
		return "Voila"
	case KindHybrid:
		return "Hybrid"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// SSBHybridNode is the optimal SSB operator node the paper reports for
// AVX-512 ("one SIMD statement and one scalar statement, and the value of
// pack is three").
var SSBHybridNode = translator.Node{V: 1, S: 1, P: 3}

// nodeFor maps an engine to its candidate node.
func nodeFor(kind EngineKind) translator.Node {
	switch kind {
	case KindScalar:
		return translator.Node{V: 0, S: 1, P: 1}
	case KindHybrid:
		return SSBHybridNode
	default: // SIMD and Voila are purely vectorized
		return translator.Node{V: 1, S: 0, P: 1}
	}
}

// SampleElems caps the elements simulated per stage; counters are then
// scaled to the stage's nominal element count.
const SampleElems = 1 << 15

// fsmElemsPerBatch converts Voila's per-batch FSM dispatch cost into
// elements of the FSM template (~5 instructions each).
const fsmElemsPerBatch = voila.FSMInstrsPerBatch / 5

// Stage is one timed pipeline stage.
type Stage struct {
	Name     string
	Template *hid.Template
	// Elems is the nominal number of elements flowing through the stage.
	Elems uint64
	// Node overrides the engine's candidate node for this stage (used for
	// Voila's tuple-at-a-time FSM work, which is scalar).
	Node *translator.Node
}

// StageResult pairs a stage with its scaled simulation counters.
type StageResult struct {
	Stage   Stage
	Res     *uarch.Result
	Seconds float64
}

// QueryRun is the timing of one query on one engine and CPU.
type QueryRun struct {
	QueryID string
	Kind    EngineKind
	CPU     *isa.CPU
	// Total sums the scaled per-stage counters.
	Total uarch.Result
	// Seconds is the extrapolated wall time; FreqGHz the cycle-weighted
	// effective clock.
	Seconds float64
	FreqGHz float64
	Stages  []StageResult
}

// IPC is retired instructions per cycle over the whole query.
func (r *QueryRun) IPC() float64 { return r.Total.IPC() }

// htBytesFor mirrors engine.NewLinearTable's sizing for n entries.
func htBytesFor(n int) uint64 {
	capacity := 4 * n
	if capacity < 16 {
		capacity = 16
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return uint64(size) * 16
}

// nominalDim returns the nominal row count of a dimension at sf.
func nominalDim(name string, sf float64) (int, error) {
	sz := ssb.SizesFor(sf)
	switch name {
	case "date":
		return sz.Date, nil
	case "customer":
		return sz.Customer, nil
	case "supplier":
		return sz.Supplier, nil
	case "part":
		return sz.Part, nil
	}
	return 0, fmt.Errorf("experiments: unknown dimension %q", name)
}

// buildStages assembles the timed pipeline for one query and engine,
// scaling the sampled cardinalities to the nominal scale factor.
func buildStages(q queries.Query, st queries.Stats, nominalSF float64, kind EngineKind) ([]Stage, error) {
	nominalFact := ssb.SizesFor(nominalSF).Lineorder
	factScale := float64(nominalFact) / float64(st.FactRows)
	var stages []Stage

	scaleDim := func(i int) (rows, passed int, err error) {
		nom, err := nominalDim(q.Joins[i].Dim, nominalSF)
		if err != nil {
			return 0, 0, err
		}
		f := float64(nom) / float64(st.DimRows[i])
		return nom, int(float64(st.DimPassed[i])*f) + 1, nil
	}

	filterTmpl := func(n int) *hid.Template {
		if kind == KindVoila {
			return voila.FilterTemplate(n)
		}
		return engine.FilterTemplate(n)
	}

	// Dimension scans and hash-table builds.
	htBytes := make([]uint64, len(q.Joins))
	for i, j := range q.Joins {
		dimRows, dimPassed, err := scaleDim(i)
		if err != nil {
			return nil, err
		}
		// Hash tables are sized for the full dimension cardinality (the
		// paper's "large linear hash table"), not the filtered entry count.
		htBytes[i] = htBytesFor(dimRows)
		nPreds := len(j.Preds)
		if nPreds == 0 {
			nPreds = 1 // an unpredicated build still scans key and payload
		}
		stages = append(stages,
			Stage{Name: "scan:" + j.Dim, Template: filterTmpl(nPreds), Elems: uint64(dimRows)},
			Stage{Name: "build:" + j.Dim, Template: engine.BuildTemplate(htBytes[i]), Elems: uint64(dimPassed)},
		)
	}

	// Fact-local predicates (Q1.x only).
	if len(q.FactPreds) > 0 {
		stages = append(stages, Stage{
			Name:     "scan:lineorder",
			Template: filterTmpl(len(q.FactPreds)),
			Elems:    uint64(float64(st.FactRows) * factScale),
		})
	}

	// Probe pipeline. Voila's vectorized probes are prefetched and lean,
	// but every row that survives a probe is handed to the state machine
	// for tuple-at-a-time match handling across the remaining stages — the
	// source of its instruction blow-up when many rows survive ("enormous
	// instructions when the selectivity is low") and of its rapid collapse
	// on highly selective queries.
	scalarNode := translator.Node{V: 0, S: 1, P: 1}
	for i, j := range q.Joins {
		elems := uint64(float64(st.ProbeIn[i]) * factScale)
		var tmpl *hid.Template
		if kind == KindVoila {
			tmpl = voila.ProbeTemplate(htBytes[i])
			batches := elems/voila.BatchSize + 1
			stages = append(stages, Stage{
				Name:     "fsm:" + j.Dim,
				Template: voila.FSMTemplate(),
				Elems:    batches * fsmElemsPerBatch,
				Node:     &scalarNode,
			})
			if i > 0 {
				// Tuple-at-a-time handling of the rows that survived the
				// previous probes, over intermediate buffers whose footprint
				// grows with the survivor count.
				stages = append(stages, Stage{
					Name:     "tuples:" + j.Dim,
					Template: voila.TupleTemplate(elems * voila.BytesPerSurvivor),
					Elems:    elems * voila.TupleFSMElems,
					Node:     &scalarNode,
				})
			}
		} else {
			tmpl = engine.ProbeTemplate(htBytes[i])
		}
		stages = append(stages, Stage{Name: "probe:" + j.Dim, Template: tmpl, Elems: elems})
	}

	// Aggregation over the survivors.
	survivors := st.ProbeOut[len(st.ProbeOut)-1]
	out := uint64(float64(survivors) * factScale)
	if q.GroupBy() {
		groupBytes := htBytesFor(st.GroupCount) / 2
		if kind == KindVoila {
			stages = append(stages, Stage{Name: "agg", Template: voila.AggTemplate(groupBytes), Elems: out})
		} else {
			stages = append(stages, Stage{Name: "agg", Template: engine.GroupAggTemplate(groupBytes), Elems: out})
		}
	} else {
		stages = append(stages, Stage{Name: "agg", Template: engine.SumAggTemplate(), Elems: out})
	}
	return stages, nil
}

// stagePlan is one stage's translated, fingerprinted measurement: the
// inputs measurePlan needs plus the content key the memo cache stores the
// result under.
type stagePlan struct {
	prog  *uarch.Program
	iters int64
	warm  []memo.WarmRange
	key   memo.Key
}

// planStage translates a stage at the engine's node and computes the
// simulation parameters and content fingerprint of its measurement.
func planStage(cpu *isa.CPU, stage Stage, kind EngineKind) (*stagePlan, error) {
	node := nodeFor(kind)
	if stage.Node != nil {
		node = *stage.Node
	}
	out, err := translator.Translate(stage.Template, node, translator.Options{CPU: cpu})
	if err != nil {
		return nil, fmt.Errorf("experiments: stage %s: %w", stage.Name, err)
	}
	simElems := stage.Elems
	if simElems > SampleElems {
		simElems = SampleElems
	}
	iters := int64(simElems) / int64(out.ElemsPerIter)
	if iters < 1 {
		iters = 1
	}
	pl := &stagePlan{prog: out.Program, iters: iters}
	for _, p := range stage.Template.Params {
		if p.Pattern == hid.RandomRegion && p.Region <= uint64(cpu.LLC.SizeBytes) {
			pl.warm = append(pl.warm, memo.WarmRange{Base: translator.ParamBase(stage.Template, p.Name), Region: p.Region})
		}
	}
	pl.key = memo.Fingerprint(memo.ProtoStage, cpu, nil, out.Program, iters, pl.warm)
	return pl, nil
}

// measurePlan simulates one planned stage measurement on sim: the plan's
// warm state (a reset hierarchy with the LLC-fitting random regions
// warmed), then a single run — a pure function of the plan, which is what
// makes the memo cache exact. warm must hold the plan's warm list.
func measurePlan(sim *uarch.Sim, warm *cache.WarmState, name string, pl *stagePlan) (*uarch.Result, error) {
	if err := sim.Err(); err != nil {
		return nil, fmt.Errorf("experiments: stage %s: %w", name, err)
	}
	if err := warm.Apply(sim.Hierarchy()); err != nil {
		return nil, fmt.Errorf("experiments: stage %s: %w", name, err)
	}
	res, err := sim.Run(pl.prog, pl.iters)
	if err != nil {
		return nil, fmt.Errorf("experiments: stage %s: %w", name, err)
	}
	return res, nil
}

// stageMeasurer measures the distinct stages of one figure. It reuses
// simulators across stages and gives each warm group one warm state,
// created by the group's first stage that measures and dropped once its
// last stage has ended, so only the groups of the stages in flight hold a
// snapshot.
type stageMeasurer struct {
	cpu *isa.CPU

	mu   sync.Mutex
	free []*uarch.Sim
	// live counts the warm states currently held; peak, the most held at
	// once.
	live, peak int
}

// warmGroup is the stages of a figure that share one warm list. Its fields
// are guarded by the measurer's mutex.
type warmGroup struct {
	ranges    []memo.WarmRange
	remaining int // stages not yet ended
	warm      *cache.WarmState
}

func newStageMeasurer(cpu *isa.CPU) *stageMeasurer {
	return &stageMeasurer{cpu: cpu}
}

// measure simulates w on a reused simulator from its group's warm state.
func (m *stageMeasurer) measure(w plannedStage) (*uarch.Result, error) {
	m.mu.Lock()
	g := w.group
	if g.warm == nil {
		g.warm = cache.NewWarmState(g.ranges)
		m.live++
		m.peak = max(m.peak, m.live)
	}
	warm := g.warm
	var sim *uarch.Sim
	if n := len(m.free); n > 0 {
		sim, m.free = m.free[n-1], m.free[:n-1]
	}
	m.mu.Unlock()
	if sim == nil {
		sim = uarch.NewSim(m.cpu)
	}
	res, err := measurePlan(sim, warm, w.name, w.pl)
	if err == nil {
		m.mu.Lock()
		m.free = append(m.free, sim)
		m.mu.Unlock()
	}
	return res, err
}

// done ends stage w, whether it hit the memo, failed or measured, and
// drops its group's warm state after the group's last stage.
func (m *stageMeasurer) done(w plannedStage) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := w.group
	if g.remaining--; g.remaining == 0 && g.warm != nil {
		g.warm = nil
		m.live--
	}
}

// runStage translates and simulates one stage, scaling the counters to the
// stage's nominal element count. Random regions that fit in the LLC are
// warmed first so node comparisons reflect steady state. A non-nil cache
// serves repeat measurements (stages shared across queries and engines)
// from their fingerprint; a nil cache always simulates.
func runStage(cpu *isa.CPU, stage Stage, kind EngineKind, mc *memo.Cache) (*uarch.Result, error) {
	if stage.Elems == 0 {
		return &uarch.Result{Name: stage.Name, FreqGHz: cpu.Freq.ScalarGHz}, nil
	}
	pl, err := planStage(cpu, stage, kind)
	if err != nil {
		return nil, err
	}
	res, ok := mc.Get(pl.key)
	if !ok {
		if res, err = measurePlan(uarch.NewSim(cpu), cache.NewWarmState(pl.warm), stage.Name, pl); err != nil {
			return nil, err
		}
		mc.Put(pl.key, res)
	}
	res.Name = stage.Name
	res.Scale(float64(stage.Elems) / float64(res.Elems))
	return res, nil
}

// TimeQuery produces the timing of one query for one engine on one CPU,
// from the sampled functional stats, extrapolated to nominalSF.
func TimeQuery(cpu *isa.CPU, q queries.Query, st queries.Stats, nominalSF float64, kind EngineKind) (*QueryRun, error) {
	return timeQuery(cpu, q, st, nominalSF, kind, nil)
}

// timeQuery is TimeQuery with an optional stage-measurement cache.
func timeQuery(cpu *isa.CPU, q queries.Query, st queries.Stats, nominalSF float64, kind EngineKind, cache *memo.Cache) (*QueryRun, error) {
	stages, err := buildStages(q, st, nominalSF, kind)
	if err != nil {
		return nil, err
	}
	run := &QueryRun{QueryID: q.ID, Kind: kind, CPU: cpu}
	for _, stage := range stages {
		res, err := runStage(cpu, stage, kind, cache)
		if err != nil {
			return nil, err
		}
		sec := res.Seconds()
		run.Total.Add(res)
		run.Seconds += sec
		run.Stages = append(run.Stages, StageResult{Stage: stage, Res: res, Seconds: sec})
	}
	if run.Seconds > 0 {
		run.FreqGHz = float64(run.Total.Cycles) / run.Seconds / 1e9
	}
	return run, nil
}
