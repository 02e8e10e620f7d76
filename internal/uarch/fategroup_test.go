package uarch_test

import (
	"testing"

	"hef/internal/engine"
	"hef/internal/hashes"
	"hef/internal/hid"
	"hef/internal/isa"
	"hef/internal/translator"
	"hef/internal/uarch"
	"hef/internal/voila"
)

// TestFateGroupsShareIssueInputs checks the skeleton's fate groups on every
// built-in operator template, translated for every machine model at scalar,
// SIMD and hybrid nodes: µops that share a group must share what the
// scheduler's resource check reads from them — class, 512-bit width, the
// sequential-prefetch flag and the gather load-queue footprint — read here
// from the instructions themselves rather than from the skeleton's tables.
// The scheduler skips a blocked group's remaining members on the strength of
// this, and the programs must bind within the group limit.
func TestFateGroupsShareIssueInputs(t *testing.T) {
	type issueInputs struct {
		class    isa.Class
		w512     bool
		isStream bool
		lqSlots  int
	}
	inputs := func(u *uarch.UOp) issueInputs {
		in := u.Instr
		k := issueInputs{
			class:    in.Class,
			w512:     in.Width == isa.W512 && in.Class.IsVector(),
			isStream: in.Class == isa.Prefetch && u.Addr.Kind == uarch.AddrStride,
		}
		if in.Class == isa.GatherOp {
			k.lqSlots = max(1, in.Lanes/2)
		}
		return k
	}
	templates := map[string]*hid.Template{
		"filter":       engine.FilterTemplate(2),
		"probe":        engine.ProbeTemplate(1 << 20),
		"sumagg":       engine.SumAggTemplate(),
		"groupagg":     engine.GroupAggTemplate(64 << 10),
		"build":        engine.BuildTemplate(1 << 20),
		"bloom":        engine.BloomTemplate(1 << 18),
		"murmur":       hashes.MurmurTemplate(),
		"crc64":        hashes.CRC64Template(),
		"voila-probe":  voila.ProbeTemplate(1 << 20),
		"voila-filter": voila.FilterTemplate(2),
		"voila-agg":    voila.AggTemplate(64 << 10),
		"voila-tuple":  voila.TupleTemplate(1 << 20),
		"voila-fsm":    voila.FSMTemplate(),
	}
	nodes := []translator.Node{{V: 0, S: 1, P: 1}, {V: 1, S: 0, P: 1}, {V: 1, S: 1, P: 2}}
	for _, cpuName := range []string{"silver", "gold", "neoverse", "zen"} {
		cpu, err := isa.ByName(cpuName)
		if err != nil {
			t.Fatalf("cpu %q: %v", cpuName, err)
		}
		for label, tmpl := range templates {
			for _, node := range nodes {
				out, err := translator.Translate(tmpl, node, translator.Options{Width: cpu.NativeWidth(), CPU: cpu})
				if err != nil {
					t.Fatalf("%s/%s at %v: translate: %v", cpuName, label, node, err)
				}
				prog := out.Program
				groups := uarch.FateGroups(prog)
				seen := map[int32]issueInputs{}
				for i := range prog.Body {
					k := inputs(&prog.Body[i])
					if prev, ok := seen[groups[i]]; ok && prev != k {
						t.Errorf("%s/%s at %v: µop %d (%s) shares fate group %d with issue inputs %+v, has %+v",
							cpuName, label, node, i, prog.Body[i].Instr.Name, groups[i], prev, k)
					}
					seen[groups[i]] = k
				}
				if _, err := uarch.NewSim(cpu).Run(prog, 4); err != nil {
					t.Errorf("%s/%s at %v: %v", cpuName, label, node, err)
				}
			}
		}
	}
}
