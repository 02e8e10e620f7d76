package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"hef/internal/core"
	"hef/internal/engine"
	"hef/internal/experiments"
	"hef/internal/hef"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/robust"
	"hef/internal/ssb"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// The load is sized for a 2-vCPU host: one process, a closed loop of
// operations, at most two workers inside an operation.
const (
	workers = 2
	// sampleSF is RunFigure's default functional sampling scale.
	sampleSF = 0.01
	// sensElems, sensJitter and the analysis list are the hefsens defaults.
	sensElems  = 1 << 12
	sensJitter = 0.05
	// sensTrials sizes the sensitivity pass to about the other workloads'
	// wall time on a 2-vCPU host.
	sensTrials = 5
)

// workloads maps each workload name to the set-up that plans its pass.
// README.md gives the reason for each.
var workloads = map[string]func(o options) (*plan, error){
	"ssb-figures":      setupFigures,
	"search-irregular": setupIrregular,
	"search-streaming": setupStreaming,
	"sensitivity":      setupSensitivity,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// plan is one workload pass: the operations in order, plus what the checks
// and the traced run need to know about them.
type plan struct {
	workload string
	size     string // "full" or "smoke"
	seed     uint64
	ops      []op
	golden   map[string]string

	// goldenEverySeed marks a pass whose operations do not depend on the
	// seed, so the golden digests hold at every seed.
	goldenEverySeed bool

	// ssb-figures: the seeded functional inputs the cross-engine check
	// runs on.
	ssbData *ssb.Data

	// search-*: the search configuration core.New gives for Silver.
	search searchCfg
}

// searchCfg is what a core.Framework fixes for a search: CPU, SIMD width,
// bounds and test size. The traced run needs it to compose the search from
// the same public steps.
type searchCfg struct {
	fw    *core.Framework
	cpu   *isa.CPU
	width isa.Width
	elems int64
}

// op is one operation: a figure, an operator search or a sensitivity
// analysis. run executes it; tr is nil on the untraced pass.
type op struct {
	name string
	run  func(p *plan, tr *tracer) opOutput
}

// opOutput is an operation's result: its digest (compared to the golden
// and across the traced and untraced runs) and the values the checks use.
type opOutput struct {
	digest string
	err    error
	fig    *experiments.Figure
	search *searchOutput
	sens   *sensOutput
}

type searchOutput struct {
	key    string // operator name, as in experiments.OpTemplate
	tmpl   *hid.Template
	cfg    searchCfg
	res    *hef.Result
	scalar float64 // per-element seconds of the purely scalar node (streaming only)
	simd   float64 // ... and of the purely SIMD node
}

type sensOutput struct {
	tmpl *hid.Template
	cpu  *isa.CPU
	s    *robust.Sensitivity
}

// passRecord is what one pass produced; the traced run compares its own
// record against the untraced child's.
type passRecord struct {
	WallS float64    `json:"wall_s"`
	Ops   []opRecord `json:"ops"`
	outs  []opOutput
}

type opRecord struct {
	Name     string   `json:"name"`
	Digest   string   `json:"digest"`
	Err      string   `json:"err,omitempty"`
	Seconds  float64  `json:"seconds"`
	Counters counters `json:"counters"`
}

// runPass runs every operation of the plan once, in order, and records the
// counter deltas of each.
func runPass(p *plan, tr *tracer) *passRecord {
	rec := &passRecord{}
	tr.begin()
	start := time.Now()
	for _, o := range p.ops {
		c0, t := readCounters(), time.Now()
		out := o.run(p, tr)
		r := opRecord{Name: o.name, Digest: out.digest, Seconds: time.Since(t).Seconds(), Counters: readCounters().sub(c0)}
		if out.err != nil {
			r.Err = out.err.Error()
		}
		rec.Ops = append(rec.Ops, r)
		rec.outs = append(rec.outs, out)
	}
	rec.WallS = time.Since(start).Seconds()
	tr.end()
	return rec
}

func newPlan(o options, name string) (*plan, error) {
	p := &plan{workload: name, size: "full", seed: o.seed}
	if o.seconds < smokeSeconds {
		p.size = "smoke"
	}
	g, err := loadGolden(o.root)
	if err != nil {
		return nil, err
	}
	p.golden = g[name]
	return p, nil
}

// mix is splitmix64: the benchmark derives every varied input from it.
func mix(seed uint64) uint64 {
	x := seed + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// paperSSBSeed is ssbbench's default generator seed: the dataset behind
// the paper's figures.
const paperSSBSeed = 20230401

// setupFigures: experiments.RunFigure for Silver and Gold at SF 10/20/50,
// each with a fresh memo and stage parallelism 2, as ssbbench -all runs
// them, on ssbbench's default dataset. The seed sets the SSB data the
// cross-engine check runs queries.Execute on (seed 1 → the default
// dataset). The figures do not take it: the generator seed changes the
// stage cardinalities and with them the number of distinct stage
// simulations (570 at the default seed, 626-748 at five others), which
// would make the pass's work depend on the seed.
func setupFigures(o options) (*plan, error) {
	p, err := newPlan(o, "ssb-figures")
	if err != nil {
		return nil, err
	}
	p.goldenEverySeed = true
	p.ssbData = ssb.Generate(sampleSF, paperSSBSeed-1+o.seed)
	cpus, sfs := []string{"silver", "gold"}, []float64{10, 20, 50}
	if p.size == "smoke" {
		cpus, sfs = cpus[:1], sfs[:1]
	}
	for _, c := range cpus {
		if _, err := isa.ByName(c); err != nil {
			return nil, err
		}
		for _, sf := range sfs {
			c, sf := c, sf
			p.ops = append(p.ops, op{name: fmt.Sprintf("figure %s/sf%g", c, sf), run: func(p *plan, tr *tracer) opOutput {
				var fig *experiments.Figure
				var err error
				tr.span("experiments.figure", c+"/sf"+strconv.FormatFloat(sf, 'g', -1, 64), func() {
					fig, err = experiments.RunFigure(experiments.FigureConfig{
						CPUName: c, NominalSF: sf, SampleSF: sampleSF, Seed: paperSSBSeed,
						Memo: memo.NewCache(), Parallel: workers,
					})
				})
				if err != nil {
					return opOutput{err: err}
				}
				return opOutput{digest: figureDigest(fig), fig: fig}
			}})
		}
	}
	return p, nil
}

// figureDigest hashes every cell (query × engine: time, instructions,
// cycles, frequency) and every functional answer of a figure.
func figureDigest(f *experiments.Figure) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", f.Label)
	for _, id := range f.Order {
		fmt.Fprintf(h, "%s sum=%d\n", id, f.Sums[id])
		for _, k := range experiments.AllEngines {
			r, ok := f.Runs[id][k]
			if !ok {
				continue
			}
			fmt.Fprintf(h, "%s %v s=%x instr=%d cycles=%d ghz=%x\n", id, k, math.Float64bits(r.Seconds), r.Total.Instructions, r.Total.Cycles, math.Float64bits(r.FreqGHz))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// silverSearch is the search configuration core.New("silver") fixes.
func silverSearch() (searchCfg, error) {
	fw, err := core.New("silver")
	if err != nil {
		return searchCfg{}, err
	}
	return searchCfg{fw: fw, cpu: fw.CPU(), width: fw.CPU().NativeWidth(), elems: hef.DefaultTestElems}, nil
}

// probeTableBytes is search-irregular's probe hash-table size: the paper's
// 32 MiB at seed 1, otherwise 28-36 MiB. Every size stays beyond Silver's
// 11 MiB LLC, in the DRAM-resident class. bloom and agg keep the paper's
// sizes: their search walk changes with the region size (agg at 48-80 KiB
// tests 15-46 nodes), which would make the pass's work depend on the seed.
func probeTableBytes(seed uint64) uint64 {
	if seed == defaultSeed {
		return 32 << 20
	}
	return (28 + mix(seed)%9) << 20
}

// setupIrregular: core.Framework.OptimizeOperatorContext on probe, bloom
// and agg on Silver with the wave engine at 2 workers and one memo shared
// by the batch, as hefopt -op probe,bloom,agg runs them.
func setupIrregular(o options) (*plan, error) {
	p, err := newPlan(o, "search-irregular")
	if err != nil {
		return nil, err
	}
	if p.search, err = silverSearch(); err != nil {
		return nil, err
	}
	// One memo shared by the batch, as hefopt shares one across operators.
	batchMemo := memo.NewCache()
	keys := []string{"probe", "bloom", "agg"}
	tmpls := []*hid.Template{engine.ProbeTemplate(probeTableBytes(o.seed))}
	for _, name := range keys[1:] {
		t, err := experiments.OpTemplate(name)
		if err != nil {
			return nil, err
		}
		tmpls = append(tmpls, t)
	}
	if p.size == "smoke" {
		keys, tmpls = keys[2:], tmpls[2:]
	}
	for i, t := range tmpls {
		k := keys[i]
		p.ops = append(p.ops, op{name: "search " + k, run: func(p *plan, tr *tracer) opOutput {
			return searchOp(p, tr, k, t, workers, batchMemo, false)
		}})
	}
	return p, nil
}

// streamingTemplate returns a built-in streaming operator with its
// constants drawn from the seed: murmur's hash seed, and filter's predicate
// bounds shifted together. Seed 1 keeps the built-in constants. Constants
// do not change the generated instruction mix, so the pass does the same
// work at every seed.
func streamingTemplate(name string, seed uint64) (*hid.Template, error) {
	t, err := experiments.OpTemplate(name)
	if err != nil || seed == defaultSeed {
		return t, err
	}
	t = t.Clone()
	r := mix(seed)
	switch name {
	case "murmur":
		t.Consts["h0"] = uint64(uint32(r)) ^ (t.Consts["m"] * 8)
	case "filter":
		for i := 0; ; i++ {
			lo, okLo := t.Consts[fmt.Sprintf("lo%d", i)]
			hi, okHi := t.Consts[fmt.Sprintf("hi%d", i)]
			if !okLo || !okHi {
				break
			}
			t.Consts[fmt.Sprintf("lo%d", i)] = lo + r%1000
			t.Consts[fmt.Sprintf("hi%d", i)] = hi + r%1000
		}
	}
	return t, nil
}

// setupStreaming: core.Framework.OptimizeOperator, the library's default
// serial walk, on murmur, crc64 and filter on Silver, each followed by
// Measure of the purely scalar and purely SIMD nodes as examples/hashopt
// does.
func setupStreaming(o options) (*plan, error) {
	p, err := newPlan(o, "search-streaming")
	if err != nil {
		return nil, err
	}
	if p.search, err = silverSearch(); err != nil {
		return nil, err
	}
	names := []string{"murmur", "crc64", "filter"}
	if p.size == "smoke" {
		names = []string{"murmur", "filter"}
	}
	for _, name := range names {
		t, err := streamingTemplate(name, o.seed)
		if err != nil {
			return nil, err
		}
		p.ops = append(p.ops, op{name: "search " + name, run: func(p *plan, tr *tracer) opOutput {
			return searchOp(p, tr, name, t, 0, nil, true)
		}})
	}
	return p, nil
}

var (
	scalarNode = hef.Node{V: 0, S: 1, P: 1}
	simdNode   = hef.Node{V: 1, S: 0, P: 1}
)

// searchOp runs one operator search. The untraced pass calls core; the
// traced pass composes the same public steps around a tracing evaluator.
func searchOp(p *plan, tr *tracer, key string, t *hid.Template, parallel int, m *memo.Cache, measure bool) opOutput {
	cfg := p.search
	out := &searchOutput{key: key, tmpl: t, cfg: cfg}
	if tr == nil {
		var opt *core.Optimized
		var err error
		if parallel == 0 && m == nil {
			opt, err = cfg.fw.OptimizeOperator(t)
		} else {
			opt, err = cfg.fw.OptimizeOperatorContext(context.Background(), t, core.OptimizeOptions{Parallel: parallel, Memo: m})
		}
		if err != nil {
			return opOutput{err: err}
		}
		out.res = opt.Search
	} else {
		res, err := tr.search(key, cfg, t, parallel, m)
		if err != nil {
			return opOutput{err: err}
		}
		out.res = res
	}
	if measure {
		var err error
		if out.scalar, err = measureNode(tr, cfg, t, scalarNode); err != nil {
			return opOutput{err: err}
		}
		if out.simd, err = measureNode(tr, cfg, t, simdNode); err != nil {
			return opOutput{err: err}
		}
	}
	return opOutput{digest: searchDigest(out), search: out}
}

// measureNode is core.Framework.Measure, as per-element seconds.
func measureNode(tr *tracer, cfg searchCfg, t *hid.Template, n hef.Node) (float64, error) {
	var res *uarch.Result
	var err error
	tr.span("core.measure", t.Name+" "+n.String(), func() { res, err = cfg.fw.Measure(t, n) })
	if err != nil {
		return 0, err
	}
	if res.Elems == 0 {
		return 0, fmt.Errorf("measuring %s %v: no elements", t.Name, n)
	}
	return res.Seconds() / float64(res.Elems), nil
}

func searchDigest(s *searchOutput) string {
	d := fmt.Sprintf("best=%v tested=%d ns_per_elem=%s", s.res.Best, s.res.Tested, fmtFloat(s.res.BestSeconds*1e9))
	if s.scalar > 0 {
		d += fmt.Sprintf(" scalar_ns=%s simd_ns=%s", fmtFloat(s.scalar*1e9), fmtFloat(s.simd*1e9))
	}
	return d
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// setupSensitivity: robust.Analyze on murmur and probe on Silver and Gold,
// the hefsens defaults, with ±5% jitter and 2 workers. The seed is the
// perturbation-ensemble seed; seed 1 is hefsens's default.
func setupSensitivity(o options) (*plan, error) {
	p, err := newPlan(o, "sensitivity")
	if err != nil {
		return nil, err
	}
	trials := sensTrials
	ops, cpus := []string{"murmur", "probe"}, []string{"silver", "gold"}
	if p.size == "smoke" {
		trials, ops, cpus = 1, ops[:1], cpus[:1]
	}
	for _, name := range ops {
		for _, c := range cpus {
			t, err := experiments.OpTemplate(name)
			if err != nil {
				return nil, err
			}
			cpu, err := isa.ByName(c)
			if err != nil {
				return nil, err
			}
			p.ops = append(p.ops, op{name: fmt.Sprintf("sensitivity %s/%s", name, c), run: func(p *plan, tr *tracer) opOutput {
				var s *robust.Sensitivity
				var err error
				tr.span("robust.analyze", name+"."+c, func() {
					s, err = robust.Analyze(context.Background(), robust.SensConfig{
						CPU: cpu, Template: t, Elems: sensElems, Seed: p.seed,
						Trials: trials, Jitter: sensJitter, Parallel: workers,
					})
				})
				if err != nil {
					return opOutput{err: err}
				}
				d, err := sensDigest(p.seed, trials, s)
				return opOutput{digest: d, err: err, sens: &sensOutput{tmpl: t, cpu: cpu, s: s}}
			}})
		}
	}
	return p, nil
}

// sensDigest hashes the hefsens report bytes of one analysis.
func sensDigest(seed uint64, trials int, s *robust.Sensitivity) (string, error) {
	r := robust.NewReport(seed, trials, sensJitter, 0)
	r.Add(s)
	b, err := r.JSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16]), nil
}

// parseNode reads a node in its String form, "n(v=1,s=4,p=5)".
func parseNode(s string) (hef.Node, error) {
	var n hef.Node
	if _, err := fmt.Sscanf(strings.TrimSpace(s), "n(v=%d,s=%d,p=%d)", &n.V, &n.S, &n.P); err != nil {
		return n, fmt.Errorf("parsing node %q: %w", s, err)
	}
	return n, nil
}

// translateOpts is the translator configuration a search uses.
func (c searchCfg) translateOpts() translator.Options {
	return translator.Options{Width: c.width, CPU: c.cpu}
}
