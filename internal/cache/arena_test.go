package cache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hef/internal/isa"
)

// sliceLevel is the slice-per-set LRU level the flat tag arena replaced:
// sets[s] holds set s's tags, most recent first. It is the arena's oracle.
type sliceLevel struct {
	setMask      uint64
	ways         int
	latency      int
	sets         [][]uint64
	hits, misses uint64
}

func newSliceLevel(g isa.CacheGeom) *sliceLevel {
	n := g.SizeBytes / g.LineBytes / g.Ways
	return &sliceLevel{setMask: uint64(n - 1), ways: g.Ways, latency: g.Latency, sets: make([][]uint64, n)}
}

func (l *sliceLevel) lookup(line uint64) bool {
	set := l.sets[line&l.setMask]
	for i, tag := range set {
		if tag == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			l.hits++
			return true
		}
	}
	l.misses++
	return false
}

func (l *sliceLevel) present(line uint64) bool {
	return slices.Contains(l.sets[line&l.setMask], line)
}

func (l *sliceLevel) fill(line uint64) {
	s := line & l.setMask
	set := append([]uint64{line}, l.sets[s]...)
	if len(set) > l.ways {
		set = set[:l.ways]
	}
	l.sets[s] = set
}

func (l *sliceLevel) clone() *sliceLevel {
	c := *l
	c.sets = make([][]uint64, len(l.sets))
	for i, set := range l.sets {
		c.sets[i] = slices.Clone(set)
	}
	return &c
}

// sliceHier is a hierarchy over sliceLevels with the same access, prefetch
// and stream-prefetcher policy as Hierarchy. Its journal and snapshots are
// whole deep copies, so their correctness is evident.
type sliceHier struct {
	l1, l2, llc *sliceLevel
	memLatency  int
	lineShift   uint
	streams     streamTable
	accessNo    uint64

	memAccesses, prefetchFills, hwPrefetchFills, hwPrefetchMem, swPrefetchMem uint64
}

func newSliceHier(cpu *isa.CPU) *sliceHier {
	h := &sliceHier{l1: newSliceLevel(cpu.L1D), l2: newSliceLevel(cpu.L2), llc: newSliceLevel(cpu.LLC), memLatency: cpu.MemLatency}
	for 1<<h.lineShift < cpu.L1D.LineBytes {
		h.lineShift++
	}
	return h
}

func (h *sliceHier) clone() *sliceHier {
	c := *h
	c.l1, c.l2, c.llc = h.l1.clone(), h.l2.clone(), h.llc.clone()
	return &c
}

func (h *sliceHier) access(addr uint64) (latency, level int) {
	line := addr >> h.lineShift
	h.accessNo++
	t := &h.streams
	if i := t.match(line); i < 0 {
		t.set(t.victim(), line+1, 0, h.accessNo)
	} else {
		hits := t.slots[i].hits + 1
		t.set(i, line+1, hits, h.accessNo)
		if hits >= 2 {
			for k := uint64(1); k <= streamDepth; k++ {
				if lvl := h.install(line + k); lvl > 0 {
					h.hwPrefetchFills++
					if lvl == 4 {
						h.hwPrefetchMem++
					}
				}
			}
		}
	}
	switch {
	case h.l1.lookup(line):
		return h.l1.latency, 1
	case h.l2.lookup(line):
		h.l1.fill(line)
		return h.l2.latency, 2
	case h.llc.lookup(line):
		h.l2.fill(line)
		h.l1.fill(line)
		return h.llc.latency, 3
	}
	h.memAccesses++
	h.llc.fill(line)
	h.l2.fill(line)
	h.l1.fill(line)
	return h.memLatency, 4
}

func (h *sliceHier) install(line uint64) int {
	if h.l1.present(line) {
		return 0
	}
	from := 2
	if !h.l2.present(line) {
		from = 3
		if !h.llc.present(line) {
			h.llc.fill(line)
			from = 4
		}
		h.l2.fill(line)
	}
	h.l1.fill(line)
	return from
}

func (h *sliceHier) prefetch(addr uint64) int {
	lvl := h.install(addr >> h.lineShift)
	if lvl > 0 {
		h.prefetchFills++
		if lvl == 4 {
			h.swPrefetchMem++
		}
	}
	return lvl
}

func (h *sliceHier) warm(base, size uint64) {
	lineBytes := uint64(1) << h.lineShift
	for a := base &^ (lineBytes - 1); a < base+size; a += lineBytes {
		h.access(a)
	}
	h.resetStats()
}

func (h *sliceHier) resetStats() {
	for _, l := range []*sliceLevel{h.l1, h.l2, h.llc} {
		l.hits, l.misses = 0, 0
	}
	h.memAccesses, h.prefetchFills, h.hwPrefetchFills, h.hwPrefetchMem, h.swPrefetchMem = 0, 0, 0, 0, 0
}

func (h *sliceHier) reset() {
	for _, l := range []*sliceLevel{h.l1, h.l2, h.llc} {
		clear(l.sets)
	}
	h.resetStats()
	h.streams = streamTable{}
}

func (h *sliceHier) stats() Stats {
	return Stats{
		L1Hits: h.l1.hits, L1Misses: h.l1.misses,
		L2Hits: h.l2.hits, L2Misses: h.l2.misses,
		LLCHits: h.llc.hits, LLCMisses: h.llc.misses,
		MemAccesses: h.memAccesses, PrefetchFills: h.prefetchFills,
		HWPrefetchFills: h.hwPrefetchFills, HWPrefetchMem: h.hwPrefetchMem,
		SWPrefetchMem: h.swPrefetchMem,
	}
}

// digest renders AppendSteadyState's format from the oracle's sets.
func (h *sliceHier) digest(lines []uint64) []byte {
	var buf []byte
	for _, l := range []*sliceLevel{h.l1, h.l2, h.llc} {
		seen := map[uint64]bool{}
		for _, ln := range lines {
			s := ln & l.setMask
			if seen[s] {
				continue
			}
			seen[s] = true
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(l.sets[s])))
			for _, tag := range l.sets[s] {
				buf = binary.LittleEndian.AppendUint64(buf, tag)
			}
		}
	}
	for _, st := range h.streams.slots {
		buf = binary.LittleEndian.AppendUint64(buf, st.nextLine)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(min(st.hits, 2)))
		buf = binary.LittleEndian.AppendUint64(buf, h.accessNo-st.lastUsed)
	}
	return buf
}

// tinyCPU is Silver with caches small enough that random traffic fills and
// evicts every set: 8 × 4-way L1, 16 × 8-way L2, 32 × 11-way LLC.
func tinyCPU() *isa.CPU {
	cpu := *isa.XeonSilver4110()
	cpu.L1D = isa.CacheGeom{SizeBytes: 8 * 4 * 64, Ways: 4, LineBytes: 64, Latency: 4}
	cpu.L2 = isa.CacheGeom{SizeBytes: 16 * 8 * 64, Ways: 8, LineBytes: 64, Latency: 14}
	cpu.LLC = isa.CacheGeom{SizeBytes: 32 * 11 * 64, Ways: 11, LineBytes: 64, Latency: 50}
	return &cpu
}

// TestTagArenaMatchesSliceLevels drives the flat tag arena and the
// slice-per-set oracle through the same seeded traffic — random lines,
// sequential runs, lines conflicting in one set, software prefetches —
// interleaved with journal windows (commit and rollback), Save/Restore,
// Warm and Reset. After every step the access results, Stats, every set's
// tags in LRU order at every level, and the AppendSteadyState bytes must
// agree.
func TestTagArenaMatchesSliceLevels(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cpu   *isa.CPU
		seeds int64
	}{{"tiny", tinyCPU(), 6}, {"silver", isa.XeonSilver4110(), 2}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= tc.seeds; seed++ {
				checkArenaAgainstOracle(t, tc.cpu, seed)
			}
		})
	}
}

func checkArenaAgainstOracle(t *testing.T, cpu *isa.CPU, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	h := mustNew(cpu)
	o := newSliceHier(cpu)
	var hSnap Snapshot
	var oSnap, oJournal *sliceHier
	journalOpen := false
	var recent []uint64
	l1Sets := h.l1.setMask + 1

	access := func(line uint64) {
		t.Helper()
		addr := line<<h.lineShift | uint64(rng.Intn(64))
		gotLat, gotLvl := h.Access(addr)
		wantLat, wantLvl := o.access(addr)
		if gotLat != wantLat || gotLvl != wantLvl {
			t.Fatalf("seed %d: Access(%#x) = (%d, %d), oracle (%d, %d)", seed, addr, gotLat, gotLvl, wantLat, wantLvl)
		}
		if len(recent) >= 32 {
			recent = recent[1:]
		}
		recent = append(recent, addr)
	}

	for step := 0; step < 2000; step++ {
		op := rng.Intn(20)
		switch {
		case op < 4: // random lines
			for i := 0; i < 1+rng.Intn(16); i++ {
				access(uint64(rng.Int63n(1 << 24)))
			}
		case op < 7: // a sequential run
			l, n := uint64(rng.Int63n(1<<20)), 1+rng.Intn(40)
			for i := 0; i < n; i++ {
				access(l + uint64(i))
			}
		case op < 10: // lines conflicting in one L1 set
			s := uint64(rng.Intn(int(l1Sets)))
			for i := 0; i < 1+rng.Intn(24); i++ {
				access(s + uint64(rng.Intn(20))*l1Sets)
			}
		case op == 10: // software prefetch
			addr := uint64(rng.Int63n(1<<24)) << h.lineShift
			if got, want := h.Prefetch(addr), o.prefetch(addr); got != want {
				t.Fatalf("seed %d: Prefetch(%#x) = %d, oracle %d", seed, addr, got, want)
			}
		case op == 11 || op == 12:
			if journalOpen {
				if rng.Intn(2) == 0 {
					h.RollbackJournal()
					o = oJournal
				} else {
					h.CommitJournal()
				}
			} else {
				h.BeginJournal()
				oJournal = o.clone()
			}
			journalOpen = !journalOpen
		case journalOpen:
			// Snapshots, warms and resets happen outside journal windows.
		case op == 13:
			h.Save(&hSnap)
			oSnap = o.clone()
		case op == 14 && oSnap != nil:
			h.Restore(&hSnap)
			o = oSnap.clone()
		case op == 15:
			b, size := uint64(rng.Int63n(1<<20))<<h.lineShift, uint64(rng.Intn(8192))
			h.Warm(b, size)
			o.warm(b, size)
		case op == 16 && rng.Intn(3) == 0:
			h.Reset()
			o.reset()
		}

		if got, want := h.Stats(), o.stats(); got != want {
			t.Fatalf("seed %d step %d: stats %+v, oracle %+v", seed, step, got, want)
		}
		for li, pair := range []struct {
			l *level
			o *sliceLevel
		}{{h.l1, o.l1}, {h.l2, o.l2}, {h.llc, o.llc}} {
			for s := range pair.o.sets {
				if got, want := pair.l.set(uint64(s)), pair.o.sets[s]; !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: level %d set %d = %v, oracle %v", seed, step, li+1, s, got, want)
				}
			}
		}
		lines := h.SteadyLines(recent, nil)
		if got, want := h.AppendSteadyState(nil, lines), o.digest(lines); !bytes.Equal(got, want) {
			t.Fatalf("seed %d step %d: steady-state digests differ", seed, step)
		}
	}
}

// TestNewLevelRejectsTooManyWays pins the arena's associativity bound: a
// set's occupancy is a uint8, so 255 ways build and 256 are an error.
func TestNewLevelRejectsTooManyWays(t *testing.T) {
	if _, err := newLevel(isa.CacheGeom{SizeBytes: 255 * 64, Ways: 255, LineBytes: 64, Latency: 4}); err != nil {
		t.Fatalf("255 ways: %v", err)
	}
	_, err := newLevel(isa.CacheGeom{SizeBytes: 256 * 64, Ways: 256, LineBytes: 64, Latency: 4})
	if err == nil || !strings.Contains(err.Error(), "256 ways") {
		t.Fatalf("256 ways: err = %v, want an error naming 256 ways", err)
	}
	cpu := *isa.XeonSilver4110()
	cpu.L2 = isa.CacheGeom{SizeBytes: 256 * 64, Ways: 256, LineBytes: 64, Latency: 14}
	if _, err := New(&cpu); err == nil {
		t.Fatal("New accepted a 256-way L2")
	}
}
