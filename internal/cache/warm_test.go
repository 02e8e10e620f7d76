package cache

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hef/internal/isa"
)

// warmFresh is the reference the warm state must reproduce: Reset, then
// Warm of every range in order.
func warmFresh(h *Hierarchy, ranges []WarmRange) {
	h.Reset()
	for _, r := range ranges {
		h.Warm(r.Base, r.Region)
	}
}

// randomRanges draws one to three possibly overlapping, possibly unaligned
// ranges of up to maxBytes each.
func randomRanges(rng *rand.Rand, maxBytes int64) []WarmRange {
	ranges := make([]WarmRange, 1+rng.Intn(3))
	for i := range ranges {
		ranges[i] = WarmRange{Base: uint64(rng.Int63n(1 << 30)), Region: uint64(1 + rng.Int63n(maxBytes))}
	}
	return ranges
}

// dirty drives h through random demand traffic, sequential runs and
// software prefetches, then jumps its access clock far ahead, so a warm
// state applied afterwards must overwrite every part of the state.
func dirty(h *Hierarchy, rng *rand.Rand) {
	for i := 0; i < 3000; i++ {
		addr := uint64(rng.Int63n(1 << 30))
		switch rng.Intn(4) {
		case 0:
			h.Prefetch(addr)
		case 1:
			for k := uint64(0); k < 12; k++ {
				h.Access(addr + k<<h.lineShift)
			}
		default:
			h.Access(addr)
		}
	}
	h.AdvanceSteady(1+rng.Int63n(1000), Stats{L1Hits: 3, MemAccesses: 1}, uint64(1+rng.Intn(5000)))
}

// sameState fails unless got and want hold the same counters, the same
// tags in LRU order in every set of every level, and the same steady-state
// digest over the given lines.
//
// The digest takes the age of a used stream slot relative to the access
// clock, but digests an unused slot's age as the clock itself, so two
// digests compare only at equal clocks. sameState first moves the clock
// that is behind forward to the other, shifting every used slot with it:
// the clock-shift invariance a restored warm state relies on. A hierarchy
// whose clock or stream table was not restored still digests differently.
func sameState(t *testing.T, what string, got, want *Hierarchy, lines []uint64) {
	t.Helper()
	if got.accessNo < want.accessNo {
		got.AdvanceSteady(1, Stats{}, want.accessNo-got.accessNo)
	} else {
		want.AdvanceSteady(1, Stats{}, got.accessNo-want.accessNo)
	}
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("%s: Stats %+v, want %+v", what, g, w)
	}
	gl, wl := []*level{got.l1, got.l2, got.llc}, []*level{want.l1, want.l2, want.llc}
	for i := range gl {
		for s := range gl[i].occ {
			if g, w := gl[i].set(uint64(s)), wl[i].set(uint64(s)); !slices.Equal(g, w) {
				t.Fatalf("%s: %s set %d holds %x, want %x", what, LevelName(i+1), s, g, w)
			}
		}
	}
	if g, w := got.AppendSteadyState(nil, lines), want.AppendSteadyState(nil, lines); !slices.Equal(g, w) {
		t.Fatalf("%s: steady-state digests differ", what)
	}
}

// sameFuture fails unless every hierarchy answers the same random access
// and prefetch sequence identically and ends with the same counters.
func sameFuture(t *testing.T, rng *rand.Rand, hs []*Hierarchy, lines []uint64) {
	t.Helper()
	lineBytes := uint64(1) << hs[0].lineShift
	for i := 0; i < 4000; i++ {
		var addr uint64
		if rng.Intn(2) == 0 {
			addr = lines[rng.Intn(len(lines))]*lineBytes + uint64(rng.Intn(int(lineBytes)))
		} else {
			addr = uint64(rng.Int63n(1 << 30))
		}
		prefetch := rng.Intn(8) == 0
		var lat0, lvl0 int
		for j, h := range hs {
			var lat, lvl int
			if prefetch {
				lvl = h.Prefetch(addr)
			} else {
				lat, lvl = h.Access(addr)
			}
			if j == 0 {
				lat0, lvl0 = lat, lvl
			} else if lat != lat0 || lvl != lvl0 {
				t.Fatalf("access %d to %#x: hierarchy %d answered (%d, %d), reference (%d, %d)", i, addr, j, lat, lvl, lat0, lvl0)
			}
		}
	}
	for j, h := range hs[1:] {
		if g, w := h.Stats(), hs[0].Stats(); g != w {
			t.Fatalf("after the random sequence, hierarchy %d has Stats %+v, reference %+v", j+1, g, w)
		}
	}
}

// probeLines picks lines to digest: some from every warmed range, some at
// random.
func probeLines(rng *rand.Rand, h *Hierarchy, ranges []WarmRange) []uint64 {
	var addrs []uint64
	for _, r := range ranges {
		for i := 0; i < 64; i++ {
			addrs = append(addrs, r.Base+uint64(rng.Int63n(int64(r.Region))))
		}
	}
	for i := 0; i < 64; i++ {
		addrs = append(addrs, uint64(rng.Int63n(1<<30)))
	}
	return h.SteadyLines(addrs, nil)
}

var warmGeometries = []struct {
	name     string
	cpu      *isa.CPU
	seeds    int64
	maxBytes int64
}{
	{"tiny", tinyCPU(), 8, 64 << 10},
	{"silver", isa.XeonSilver4110(), 3, 4 << 20},
	{"gold", isa.XeonGold6240R(), 2, 6 << 20},
}

// TestWarmStateMatchesFreshWarm: the hierarchy a warm state is built on,
// and every other hierarchy it is restored onto — each dirtied and with its
// access clock advanced first — must equal a fresh Reset + Warm of the same
// ranges in counters, every set's LRU contents and the steady-state digest,
// and must answer a following random access sequence identically.
func TestWarmStateMatchesFreshWarm(t *testing.T) {
	for _, g := range warmGeometries {
		t.Run(g.name, func(t *testing.T) {
			for seed := int64(1); seed <= g.seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ranges := randomRanges(rng, g.maxBytes)
				ref := mustNew(g.cpu)
				dirty(ref, rng)
				warmFresh(ref, ranges)

				w := NewWarmState(ranges)
				hs := []*Hierarchy{ref}
				for i := 0; i < 3; i++ {
					h := mustNew(g.cpu)
					dirty(h, rng)
					if err := w.Apply(h); err != nil {
						t.Fatalf("seed %d: Apply %d: %v", seed, i, err)
					}
					hs = append(hs, h)
				}
				lines := probeLines(rng, ref, ranges)
				sameState(t, "built", hs[1], ref, lines)
				sameState(t, "restored", hs[2], ref, lines)
				sameState(t, "restored again", hs[3], ref, lines)
				sameFuture(t, rng, hs, lines)
			}
		})
	}
}

// TestWarmStateConcurrentFirstUse: hierarchies applying one unbuilt warm
// state at the same time get it built once and all end in the fresh-warm
// state. Run it under -race.
func TestWarmStateConcurrentFirstUse(t *testing.T) {
	cpu := isa.XeonSilver4110()
	rng := rand.New(rand.NewSource(11))
	ranges := randomRanges(rng, 2<<20)
	ref := mustNew(cpu)
	warmFresh(ref, ranges)

	w := NewWarmState(ranges)
	hs := make([]*Hierarchy, 4)
	for i := range hs {
		hs[i] = mustNew(cpu)
		dirty(hs[i], rng)
	}
	errs := make([]error, len(hs))
	var wg sync.WaitGroup
	for i, h := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Apply(h)
		}()
	}
	wg.Wait()
	lines := probeLines(rng, ref, ranges)
	for i, h := range hs {
		if errs[i] != nil {
			t.Fatalf("Apply %d: %v", i, errs[i])
		}
		sameState(t, "concurrent", h, ref, lines)
	}
	sameFuture(t, rng, append([]*Hierarchy{ref}, hs...), lines)
}

// TestWarmStateRejectsOtherGeometry: a warm state built on one geometry
// fails on a hierarchy of another instead of restoring into it.
func TestWarmStateRejectsOtherGeometry(t *testing.T) {
	w := NewWarmState([]WarmRange{{Base: 1 << 20, Region: 1 << 16}})
	if err := w.Apply(mustNew(isa.XeonSilver4110())); err != nil {
		t.Fatal(err)
	}
	if err := w.Apply(mustNew(isa.XeonGold6240R())); err == nil {
		t.Error("a Silver warm state applied to a Gold hierarchy without error")
	}
}

// TestSaveSizesBuffersExactly: a snapshot saved into empty buffers holds
// exactly the occupied tags and one occupancy per set, with no spare
// capacity.
func TestSaveSizesBuffersExactly(t *testing.T) {
	h := mustNew(isa.XeonSilver4110())
	warmFresh(h, []WarmRange{{Base: 0, Region: 3 << 20}, {Base: 1 << 30, Region: 12345}})
	var sn Snapshot
	h.Save(&sn)
	for i, l := range []*level{h.l1, h.l2, h.llc} {
		n := 0
		for _, o := range l.occ {
			n += int(o)
		}
		if len(sn.tags[i]) != n || cap(sn.tags[i]) != n {
			t.Errorf("%s: %d tags saved with capacity %d, want %d", LevelName(i+1), len(sn.tags[i]), cap(sn.tags[i]), n)
		}
		if len(sn.occ[i]) != len(l.occ) || cap(sn.occ[i]) != len(l.occ) {
			t.Errorf("%s: occupancy length %d capacity %d, want %d", LevelName(i+1), len(sn.occ[i]), cap(sn.occ[i]), len(l.occ))
		}
	}
}
