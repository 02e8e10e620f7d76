package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"hef/internal/isa"
)

// linearOracle is a hierarchy whose stream prefetcher is the plain linear
// scan over the slots that streamTable's index replaces: match the
// lowest-index slot predicting the line, else reallocate the slot with the
// lowest lastUsed (lowest index on ties). It reuses a real Hierarchy for the
// cache levels and counters and keeps its own stream slots; the real
// hierarchy's streams field is only written to render a digest.
type linearOracle struct {
	h       *Hierarchy
	streams [streamTableSize]stream
	journal [streamTableSize]stream
}

func (o *linearOracle) prefetch(line uint64) {
	h := o.h
	for i := range o.streams {
		st := &o.streams[i]
		if st.nextLine != line || st.nextLine == 0 {
			continue
		}
		st.nextLine = line + 1
		st.hits++
		st.lastUsed = h.accessNo
		if st.hits >= 2 {
			for k := uint64(1); k <= streamDepth; k++ {
				if lvl := h.installIfAbsent(line + k); lvl > 0 {
					h.hwPrefetchFills++
					if lvl == 4 {
						h.hwPrefetchMem++
					}
				}
			}
		}
		return
	}
	victim := 0
	for i := 1; i < len(o.streams); i++ {
		if o.streams[i].lastUsed < o.streams[victim].lastUsed {
			victim = i
		}
	}
	o.streams[victim] = stream{nextLine: line + 1, lastUsed: h.accessNo}
}

func (o *linearOracle) access(addr uint64) (latency, levelHit int) {
	h := o.h
	line := addr >> h.lineShift
	h.accessNo++
	o.prefetch(line)
	switch {
	case h.l1.lookup(line):
		return h.l1.geom.Latency, 1
	case h.l2.lookup(line):
		h.l1.fill(line)
		return h.l2.geom.Latency, 2
	case h.llc.lookup(line):
		h.l2.fill(line)
		h.l1.fill(line)
		return h.llc.geom.Latency, 3
	default:
		h.memAccesses++
		h.llc.fill(line)
		h.l2.fill(line)
		h.l1.fill(line)
		return h.memLatency, 4
	}
}

func (o *linearOracle) warm(base, size uint64) {
	lineBytes := uint64(1) << o.h.lineShift
	for a := base &^ (lineBytes - 1); a < base+size; a += lineBytes {
		o.access(a)
	}
	o.h.ResetStats()
}

func (o *linearOracle) advance(k int64, d Stats, dAccess uint64) {
	o.h.AdvanceSteady(k, d, dAccess)
	for i := range o.streams {
		if o.streams[i].lastUsed != 0 {
			o.streams[i].lastUsed += uint64(k) * dAccess
		}
	}
}

func (o *linearOracle) digest(lines []uint64) []byte {
	o.h.streams = streamTable{slots: o.streams}
	return o.h.AppendSteadyState(nil, lines)
}

// TestStreamTableMatchesLinearScan drives the indexed stream table and the
// linear-scan oracle through the same seeded operation sequences —
// sequential runs, repeated lines, random jumps, lines near 0, interleaved
// streams that overflow the table, software prefetches — interleaved with
// snapshots, journal windows, steady-state advances, warms and resets, and
// requires identical access results, counters, access clocks, stream slots
// and steady-state digests after every step.
func TestStreamTableMatchesLinearScan(t *testing.T) {
	cpu := isa.XeonSilver4110()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := mustNew(cpu)
		o := &linearOracle{h: mustNew(cpu)}
		var hSnap, oSnap Snapshot
		var oSnapStreams [streamTableSize]stream
		journalOpen := false
		var recent []uint64 // the last 64 accessed addresses

		access := func(line uint64) {
			t.Helper()
			addr := line<<h.lineShift | uint64(rng.Intn(64))
			gotLat, gotLvl := h.Access(addr)
			wantLat, wantLvl := o.access(addr)
			if gotLat != wantLat || gotLvl != wantLvl {
				t.Fatalf("seed %d: Access(%#x) = (%d, %d), oracle (%d, %d)", seed, addr, gotLat, gotLvl, wantLat, wantLvl)
			}
			if len(recent) >= 64 {
				recent = recent[1:]
			}
			recent = append(recent, addr)
		}
		// base picks a run's starting line: near 0, from a small pool that
		// makes runs collide and repeat, or anywhere.
		base := func() uint64 {
			switch rng.Intn(3) {
			case 0:
				return uint64(rng.Intn(4))
			case 1:
				return uint64(rng.Intn(8)) * 97
			}
			return uint64(rng.Int63n(1 << 40))
		}

		for step := 0; step < 3000; step++ {
			op := rng.Intn(20)
			switch {
			case op < 5: // a sequential run
				l, n := base(), 1+rng.Intn(40)
				for i := 0; i < n; i++ {
					access(l + uint64(i))
				}
			case op < 7: // one line, repeated
				l := base()
				for i := 0; i < 1+rng.Intn(4); i++ {
					access(l)
				}
			case op < 9: // random jumps
				for i := 0; i < 1+rng.Intn(8); i++ {
					access(uint64(rng.Int63n(1 << 30)))
				}
			case op < 11: // interleaved streams, up to more than the table holds
				k := 1 + rng.Intn(streamTableSize+6)
				starts := make([]uint64, k)
				for i := range starts {
					starts[i] = base() + uint64(i)*1000
				}
				for r := 0; r < 1+rng.Intn(6); r++ {
					for i := range starts {
						access(starts[i] + uint64(r))
					}
				}
			case op == 11: // software prefetch
				addr := base() << h.lineShift
				if got, want := h.Prefetch(addr), o.h.Prefetch(addr); got != want {
					t.Fatalf("seed %d: Prefetch(%#x) = %d, oracle %d", seed, addr, got, want)
				}
			case op == 12:
				if journalOpen {
					if rng.Intn(2) == 0 {
						h.RollbackJournal()
						o.h.RollbackJournal()
						o.streams = o.journal
					} else {
						h.CommitJournal()
						o.h.CommitJournal()
					}
				} else {
					h.BeginJournal()
					o.h.BeginJournal()
					o.journal = o.streams
				}
				journalOpen = !journalOpen
			case op == 13:
				k := int64(1 + rng.Intn(5))
				d := Stats{L1Hits: uint64(rng.Intn(9)), L2Misses: uint64(rng.Intn(3)), HWPrefetchFills: uint64(rng.Intn(4))}
				dAccess := uint64(rng.Intn(50))
				h.AdvanceSteady(k, d, dAccess)
				o.advance(k, d, dAccess)
			case journalOpen:
				// Snapshots, warms and resets happen outside journal windows.
			case op == 14:
				h.Save(&hSnap)
				o.h.Save(&oSnap)
				oSnapStreams = o.streams
			case op == 15 && hSnap.Valid():
				h.Restore(&hSnap)
				o.h.Restore(&oSnap)
				o.streams = oSnapStreams
			case op == 16:
				b, size := base()<<h.lineShift, uint64(rng.Intn(4096))
				h.Warm(b, size)
				o.warm(b, size)
			case op == 17 && rng.Intn(4) == 0:
				h.Reset()
				o.h.Reset()
				o.streams = [streamTableSize]stream{}
			}

			if got, want := h.Stats(), o.h.Stats(); got != want {
				t.Fatalf("seed %d step %d: stats %+v, oracle %+v", seed, step, got, want)
			}
			if got, want := h.AccessNo(), o.h.AccessNo(); got != want {
				t.Fatalf("seed %d step %d: access clock %d, oracle %d", seed, step, got, want)
			}
			if h.streams.slots != o.streams {
				t.Fatalf("seed %d step %d: stream slots\n%+v\noracle\n%+v", seed, step, h.streams.slots, o.streams)
			}
			lines := h.SteadyLines(recent, nil)
			if got, want := h.AppendSteadyState(nil, lines), o.digest(lines); !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: steady-state digests differ", seed, step)
			}
		}
	}
}
