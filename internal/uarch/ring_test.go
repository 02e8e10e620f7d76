package uarch

import (
	"fmt"
	"reflect"
	"testing"

	"hef/internal/isa"
)

// oracleRingSlots is the fixed ring size the simulator used before the ring
// was derived from the ROB and the body length: more slots than any ROB
// can keep iterations in flight.
const oracleRingSlots = 512

// ringProg builds an n-µop body whose last µop is a load, missing to
// memory when miss is set and hitting one hot line otherwise. The first µop
// reads that load's result from the previous iteration. The µops in between
// alternate hot stack loads and adds that each read the register written
// rot µops earlier, so operands come from both the same and the previous
// iteration while the body stays wide enough for the ROB to fill behind a
// slow load: the live register window then spans as many iterations as the
// ROB allows.
func ringProg(n int, miss bool) *Program {
	ld := isa.MustScalar("movq")
	add := isa.MustScalar("add")
	addr := AddrSpec{Kind: AddrRandom, Base: 1 << 30, Seed: 11}
	if miss {
		addr.Region = 1 << 28
	}
	const loaded, first, rot = 1, 2, 6
	p := &Program{Name: fmt.Sprintf("ring-%d-miss=%v", n, miss), NumRegs: 3 + rot, ElemsPerIter: 1}
	if n == 1 {
		// A pointer chase: the load's only operand is its own previous value.
		p.Body = []UOp{{Instr: ld, Dst: loaded, Srcs: [3]int16{loaded, NoReg, NoReg}, Addr: addr}}
		return p
	}
	p.Body = append(p.Body, UOp{Instr: add, Dst: first, Srcs: [3]int16{loaded, 0, NoReg}})
	for i := 1; i < n-1; i++ {
		r := int16(3 + i%rot)
		if i%2 == 0 {
			p.Body = append(p.Body, UOp{Instr: ld, Dst: r, Srcs: [3]int16{NoReg, NoReg, NoReg},
				Addr: AddrSpec{Kind: AddrStack, Base: 1 << 20, Offset: uint64(i % 8)}})
		} else {
			p.Body = append(p.Body, UOp{Instr: add, Dst: r, Srcs: [3]int16{r, 0, NoReg}})
		}
	}
	p.Body = append(p.Body, UOp{Instr: ld, Dst: loaded, Srcs: [3]int16{NoReg, NoReg, NoReg}, Addr: addr})
	return p
}

// TestRingSizedToROBMatchesOracle runs bodies of several lengths, on every
// CPU model with the fast path on and off, on a register ring sized from
// the ROB and on the fixed 512-slot oracle ring: the Results must be equal.
// The self-checks, on under go test, also fail a run whose dispatch would
// clear a live slot.
func TestRingSizedToROBMatchesOracle(t *testing.T) {
	for _, cpu := range steadyCPUs(t) {
		for _, n := range []int{1, 2, 3, 37, 1000} {
			iters := int64(max(64, 8192/n))
			for _, miss := range []bool{false, true} {
				prog := ringProg(n, miss)
				for _, fast := range []bool{true, false} {
					name := fmt.Sprintf("%s/%s/fast=%v", cpu.Name, prog.Name, fast)
					s := NewSim(cpu)
					s.SetFastPath(fast)
					got, err := s.Run(prog, iters)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if want := ringSlotsFor(len(s.robBody), n); s.ringSlots != want || want >= oracleRingSlots {
						t.Fatalf("%s: ring has %d slots, want %d (below the oracle's %d)", name, s.ringSlots, want, oracleRingSlots)
					}
					o := NewSim(cpu)
					o.SetFastPath(fast)
					if err := bindRing(o, prog, oracleRingSlots); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := o.Run(prog, iters)
					if err != nil {
						t.Fatalf("%s oracle: %v", name, err)
					}
					if o.ringSlots != oracleRingSlots {
						t.Fatalf("%s: oracle ring resized to %d slots", name, o.ringSlots)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: %d-slot ring diverged from the oracle\ngot:  %+v\nwant: %+v", name, s.ringSlots, got, want)
					}
				}
			}
		}
	}
}

// TestRingSlotsFor pins the sizing rule at its edges.
func TestRingSlotsFor(t *testing.T) {
	for _, tc := range []struct{ robCap, bodyLen, want int }{
		{232, 1, 256},  // 234 live slots
		{232, 37, 16},  // 9
		{136, 37, 8},   // 6
		{232, 1000, 4}, // 3
		{232, 232, 4},  // 3
		{232, 115, 8},  // 5
		{232, 116, 4},  // 4
	} {
		if got := ringSlotsFor(tc.robCap, tc.bodyLen); got != tc.want {
			t.Errorf("ringSlotsFor(%d, %d) = %d, want %d", tc.robCap, tc.bodyLen, got, tc.want)
		}
	}
}
