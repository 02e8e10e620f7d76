package experiments

import (
	"reflect"
	"testing"

	"hef/internal/engine"
	"hef/internal/isa"
	"hef/internal/memo"
	"hef/internal/queries"
	"hef/internal/ssb"
	"hef/internal/uarch"
)

// freshSimMeasure is the stage measurement the shared warm states replace,
// kept as their oracle: a fresh simulator, the warm loop replayed over the
// plan's ranges, then a single run.
func freshSimMeasure(cpu *isa.CPU, pl *stagePlan) (*uarch.Result, error) {
	sim := uarch.NewSim(cpu)
	if err := sim.Err(); err != nil {
		return nil, err
	}
	for _, w := range pl.warm {
		sim.Hierarchy().Warm(w.Base, w.Region)
	}
	return sim.Run(pl.prog, pl.iters)
}

// TestPremeasureMatchesFreshSimOracle: pre-measuring a figure with shared
// warm states and reused simulators must store, for every distinct stage,
// the result a fresh simulator measures, and RunFigure must produce the
// figure the oracle's measurements produce, at parallel 1 and 2. No warm
// state may outlive premeasureFigure, and at most one per worker plus one
// may be held at once.
func TestPremeasureMatchesFreshSimOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	cpu, err := isa.ByName("gold")
	if err != nil {
		t.Fatal(err)
	}
	const nominalSF, sampleSF, seed = 20, 0.005, 20230401
	qs := queries.Evaluated()
	data := ssb.Generate(sampleSF, seed)
	stats := map[string]queries.Stats{}
	for _, q := range qs {
		fres, err := queries.Execute(q, data, engine.Scalar)
		if err != nil {
			t.Fatal(err)
		}
		stats[q.ID] = fres.Stats
	}
	todo, err := figurePlans(cpu, qs, stats, nominalSF, AllEngines)
	if err != nil {
		t.Fatal(err)
	}
	oracle := memo.NewCache()
	groups := map[*warmGroup]bool{}
	for _, w := range todo {
		res, err := freshSimMeasure(cpu, w.pl)
		if err != nil {
			t.Fatalf("oracle %s: %v", w.name, err)
		}
		oracle.Put(w.pl.key, res)
		groups[w.group] = true
	}
	if len(groups) < 3 {
		t.Fatalf("the figure has %d warm groups; the test needs several", len(groups))
	}
	cfg := FigureConfig{CPUName: "gold", NominalSF: nominalSF, SampleSF: sampleSF, Seed: seed, Queries: qs, Memo: oracle}
	want, err := RunFigure(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, parallel := range []int{1, 2} {
		mc := memo.NewCache()
		m := newStageMeasurer(cpu)
		if err := premeasureFigure(m, qs, stats, nominalSF, AllEngines, mc, parallel); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if m.live != 0 {
			t.Errorf("parallel=%d: %d warm states outlive premeasureFigure", parallel, m.live)
		}
		if m.peak < 1 || m.peak > parallel+1 {
			t.Errorf("parallel=%d: %d warm states held at once, want 1..%d", parallel, m.peak, parallel+1)
		}
		for _, w := range todo {
			got, _ := mc.Get(w.pl.key)
			ref, _ := oracle.Get(w.pl.key)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("parallel=%d: stage %s measures %+v, fresh simulator %+v", parallel, w.name, got, ref)
			}
		}

		cfg.Memo, cfg.Parallel = memo.NewCache(), parallel
		fig, err := RunFigure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fig.Runs, want.Runs) || !reflect.DeepEqual(fig.Sums, want.Sums) {
			t.Errorf("parallel=%d: figure diverges from the fresh-simulator oracle:\n%s\nvs\n%s", parallel, fig, want)
		}
	}
}
