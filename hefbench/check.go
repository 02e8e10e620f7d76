package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"

	"hef/internal/engine"
	"hef/internal/experiments"
	"hef/internal/hef"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/queries"
	"hef/internal/ssb"
	"hef/internal/translator"
	"hef/internal/uarch"
)

// checker collects output mismatches. A mismatch fails the operation it
// belongs to; one that belongs to the whole pass fails every operation.
type checker struct {
	w      io.Writer
	failed map[int]bool
	all    bool
	cache  cacheStats
}

// cacheStats sums the hierarchy counters of the re-measured optima.
type cacheStats struct {
	accesses, l1Hits, llcHits, llcMisses uint64
}

func newChecker(w io.Writer) *checker { return &checker{w: w, failed: map[int]bool{}} }

func (c *checker) fail(i int, format string, args ...any) {
	fmt.Fprintf(c.w, "hefbench: FAIL: "+format+"\n", args...)
	if i < 0 {
		c.all = true
		return
	}
	c.failed[i] = true
}

func (c *checker) failedOps(n int) int {
	if c.all {
		return n
	}
	return len(c.failed)
}

// pass checks the invariants that hold at every seed: every operation
// returned without error; queries.Execute answers agree across the scalar,
// SIMD and hybrid engines; every optimum, re-measured on a simulator the
// benchmark owns, passes Result.SelfCheck and costs what the search
// reported.
func (c *checker) pass(p *plan, rec *passRecord) {
	for i, out := range rec.outs {
		if out.err != nil {
			c.fail(i, "%s: %v", rec.Ops[i].Name, out.err)
		}
	}
	if p.ssbData != nil {
		c.crossEngine(p.ssbData)
	}
	for i, out := range rec.outs {
		switch {
		case out.search != nil:
			s := out.search
			c.remeasure(i, rec.Ops[i].Name, s.cfg.cpu, s.tmpl, s.cfg.width, s.cfg.elems, s.res.Best, s.res.BestSeconds*1e9)
		case out.sens != nil:
			s := out.sens
			n, err := parseNode(s.s.Baseline)
			if err != nil {
				c.fail(i, "%s: %v", rec.Ops[i].Name, err)
				continue
			}
			c.remeasure(i, rec.Ops[i].Name, s.cpu, s.tmpl, s.cpu.NativeWidth(), sensElems, n, s.s.BaselineNSPerElem)
		}
	}
}

// crossEngine runs every evaluated query on the SSB data under the three
// functional engines and compares their answers.
func (c *checker) crossEngine(data *ssb.Data) {
	for _, q := range queries.Evaluated() {
		var ref *queries.Result
		for _, mode := range []engine.Mode{engine.Scalar, engine.SIMD, engine.Hybrid} {
			r, err := queries.Execute(q, data, mode)
			if err != nil {
				c.fail(-1, "queries.Execute %s under %v: %v", q.ID, mode, err)
				return
			}
			if ref == nil {
				ref = r
				continue
			}
			if r.Sum != ref.Sum || !reflect.DeepEqual(r.Groups, ref.Groups) {
				c.fail(-1, "queries.Execute %s: engine %v disagrees with scalar (sum %d vs %d)", q.ID, mode, r.Sum, ref.Sum)
			}
		}
	}
}

// remeasure runs SimEvaluator's measurement protocol — reset the
// hierarchy, warm the LLC-fitting random regions, one throwaway run, one
// measured run — on a fresh simulator, self-checks the result, and adds its
// cache counters to c.cache.
func (c *checker) remeasure(i int, name string, cpu *isa.CPU, tmpl *hid.Template, width isa.Width, elems int64, n hef.Node, wantNS float64) {
	out, err := translator.Translate(tmpl, n, translator.Options{Width: width, CPU: cpu})
	if err != nil {
		c.fail(i, "%s: translating optimum %v: %v", name, n, err)
		return
	}
	iters := elems / int64(out.ElemsPerIter)
	if iters < 1 {
		iters = 1
	}
	sim := uarch.NewSim(cpu)
	hier := sim.Hierarchy()
	hier.Reset()
	for _, w := range warmRanges(tmpl, cpu) {
		hier.Warm(w.Base, w.Region)
	}
	var res *uarch.Result
	if _, err = sim.Run(out.Program, iters); err == nil {
		hier.ResetStats()
		res, err = sim.Run(out.Program, iters)
	}
	if err != nil {
		c.fail(i, "%s: re-measuring optimum %v: %v", name, n, err)
		return
	}
	if err := res.SelfCheck(); err != nil {
		c.fail(i, "%s: optimum %v: %v", name, n, err)
	}
	if got := res.Seconds() / float64(res.Elems) * 1e9; got != wantNS {
		c.fail(i, "%s: optimum %v re-measures at %s ns/elem, the search reported %s", name, n, fmtFloat(got), fmtFloat(wantNS))
	}
	st := hier.Stats()
	c.cache.accesses += st.L1Hits + st.L1Misses
	c.cache.l1Hits += st.L1Hits
	c.cache.llcHits += st.LLCHits
	c.cache.llcMisses += st.LLCMisses
}

// golden compares each operation's digest with the one recorded at the
// default seed, at every seed where the operations do not depend on it.
// The smoke size has no golden.
func (c *checker) golden(p *plan, rec *passRecord) {
	if p.size != "full" || p.seed != defaultSeed && !p.goldenEverySeed {
		return
	}
	for i, r := range rec.Ops {
		want, ok := p.golden[r.Name]
		switch {
		case !ok:
			c.fail(i, "%s: no golden digest recorded", r.Name)
		case want != r.Digest:
			c.fail(i, "%s: digest %q, golden %q", r.Name, r.Digest, want)
		}
	}
}

// agree checks the traced pass against the untraced one: the same
// operations, digests, errors and simulated counters.
func (c *checker) agree(base, rec *passRecord) {
	if len(base.Ops) != len(rec.Ops) {
		c.fail(-1, "traced pass ran %d operations, untraced %d", len(rec.Ops), len(base.Ops))
		return
	}
	for i, r := range rec.Ops {
		b := base.Ops[i]
		if r.Name != b.Name || r.Digest != b.Digest || r.Err != b.Err {
			c.fail(i, "%s: traced result %q differs from untraced %q", r.Name, r.Digest, b.Digest)
		}
		if r.Counters.deterministic() != b.Counters.deterministic() {
			c.fail(i, "%s: traced counters %+v differ from untraced %+v", r.Name, r.Counters, b.Counters)
		}
	}
}

// paperRatios are the Silver rows of the paper's Tables VI (MurmurHash)
// and VIII (CRC64): scalar, SIMD and hybrid times in ms for 1e9 elements.
// refOptima are the hybrid optima this model finds for them at the default
// test size (EXPERIMENTS.md).
var (
	paperMS = map[string][3]float64{
		"murmur": {3306, 3352, 2647},
		"crc64":  {1064, 910, 380},
	}
	refOptima = map[string]hef.Node{
		"murmur": {V: 1, S: 4, P: 5},
		"crc64":  {V: 5, S: 0, P: 3},
	}
)

// modelErr is the mean relative error, in percent, of the simulated
// scalar/hybrid and SIMD/hybrid time ratios of murmur and crc64 on Silver
// against the paper's. The hybrid node is the optimum the pass's own search
// found where it searched the operator, else the reference optimum. It is
// a property of the model, reported on every workload.
func (c *checker) modelErr(rec *passRecord) float64 {
	cfg, err := silverSearch()
	if err != nil {
		c.fail(-1, "model error: %v", err)
		return 0
	}
	var sum float64
	var n int
	for _, op := range []string{"murmur", "crc64"} {
		hybrid := refOptima[op]
		for _, out := range rec.outs {
			if out.search != nil && out.search.key == op && out.err == nil {
				hybrid = out.search.res.Best
			}
		}
		tmpl, err := experiments.OpTemplate(op)
		if err != nil {
			c.fail(-1, "model error: %v", err)
			return 0
		}
		var t [3]float64
		for i, node := range []hef.Node{scalarNode, simdNode, hybrid} {
			if t[i], err = measureNode(nil, cfg, tmpl, node); err != nil {
				c.fail(-1, "model error: %s %v: %v", op, node, err)
				return 0
			}
		}
		paper := paperMS[op]
		for i := 0; i < 2; i++ {
			got, want := t[i]/t[2], paper[i]/paper[2]
			sum += math.Abs(got-want) / want
			n++
		}
	}
	return 100 * sum / float64(n)
}

// goldenFile holds, per workload, each operation's digest at the default
// seed and full size.
const goldenFile = "hefbench/golden.json"

func loadGolden(root string) (map[string]map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(root, goldenFile))
	if errors.Is(err, os.ErrNotExist) {
		return map[string]map[string]string{}, nil
	}
	if err != nil {
		return nil, err
	}
	g := map[string]map[string]string{}
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile, err)
	}
	return g, nil
}

func writeGolden(root, workload string, rec *passRecord) error {
	for _, r := range rec.Ops {
		if r.Err != "" {
			return fmt.Errorf("not recording goldens: %s failed: %s", r.Name, r.Err)
		}
	}
	g, err := loadGolden(root)
	if err != nil {
		return err
	}
	m := map[string]string{}
	for _, r := range rec.Ops {
		m[r.Name] = r.Digest
	}
	g[workload] = m
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, goldenFile), append(b, '\n'), 0o644)
}
