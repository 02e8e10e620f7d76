package uarch

import (
	"math/rand"
	"slices"
	"testing"
)

// minHeap is the binary min-heap of cycle stamps the timing wheels replaced;
// it serves as their oracle.
type minHeap []int64

func (h *minHeap) push(v int64) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *minHeap) pop() int64 {
	old := *h
	v := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && (*h)[l] < (*h)[m] {
			m = l
		}
		if r < n && (*h)[r] < (*h)[m] {
			m = r
		}
		if m == i {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return v
}

// drain removes all heap entries <= cycle and returns how many were removed.
func (h *minHeap) drain(cycle int64) int {
	n := 0
	for len(*h) > 0 && (*h)[0] <= cycle {
		h.pop()
		n++
	}
	return n
}

func (h *minHeap) min() (int64, bool) {
	if len(*h) == 0 {
		return 0, false
	}
	return (*h)[0], true
}

// wheelContents lists a count wheel's stamps in ascending order, walking it
// the way the steady-state digest does.
func wheelContents(q *countWheel) []int64 {
	var out []int64
	for t, left := q.lo, q.n; left > 0; {
		k := q.count(t)
		for range k {
			out = append(out, t)
		}
		if left -= k; left > 0 {
			t = q.nextFrom(t + 1)
		}
	}
	return out
}

// TestCountWheelMatchesHeap drives a count wheel and the heap it replaced
// through seeded sequences of pushes from the current cycle to 600 cycles
// ahead, single-cycle steps, long idle jumps, shifts by large deltas,
// resets, and stamps far beyond the initial window (forcing growth), and
// requires equal drain counts, lengths, minima and contents after every
// step.
func TestCountWheelMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := int64(64) << (seed % 4) // 64..512 buckets
		var q countWheel
		q.init(int(size))
		var h minHeap
		var cycle int64
		for step := 0; step < 20000; step++ {
			switch op := rng.Intn(100); {
			case op < 45:
				v := cycle + int64(rng.Intn(601))
				if rng.Intn(4) == 0 {
					v = cycle // a stamp equal to the cycle just drained
				}
				q.push(v)
				h.push(v)
			case op < 85:
				cycle += 1 + int64(rng.Intn(3))
			case op < 92:
				cycle += 1000 + int64(rng.Intn(100000))
			case op < 95:
				kd := int64(1+rng.Intn(1<<20)) << rng.Intn(20)
				q.shift(kd)
				for i := range h {
					h[i] += kd
				}
				cycle += kd
			case op < 97:
				v := cycle + size*int64(1+rng.Intn(8)) + int64(rng.Intn(64))
				q.push(v)
				h.push(v)
			default:
				if rng.Intn(4) == 0 {
					q.reset()
					h = h[:0]
					cycle = 0
				}
			}
			if got, want := q.drain(cycle), h.drain(cycle); got != want {
				t.Fatalf("seed %d step %d: drain(%d) removed %d, heap %d", seed, step, cycle, got, want)
			}
			if got, want := q.len(), len(h); got != want {
				t.Fatalf("seed %d step %d: len %d, heap %d", seed, step, got, want)
			}
			gm, gok := q.min()
			wm, wok := h.min()
			if gok != wok || (gok && gm != wm) {
				t.Fatalf("seed %d step %d: min (%d, %v), heap (%d, %v)", seed, step, gm, gok, wm, wok)
			}
			want := slices.Clone([]int64(h))
			slices.Sort(want)
			if got := wheelContents(&q); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: contents\n%v\nheap\n%v", seed, step, got, want)
			}
		}
		if len(q.slot) <= int(size) {
			t.Fatalf("seed %d: the wheel never grew past %d buckets", seed, size)
		}
	}
}

// timedHeap is the maturation heap the list wheel replaced: entries keyed by
// their unclamped data-ready cycle.
type timedHeap struct {
	at minHeap
	ei map[int64][]int32
}

func (h *timedHeap) push(at int64, ei int32) {
	h.at.push(at)
	h.ei[at] = append(h.ei[at], ei)
}

// popTo removes every entry data-ready at or before cycle.
func (h *timedHeap) popTo(cycle int64) []int32 {
	var out []int32
	for len(h.at) > 0 && h.at[0] <= cycle {
		at := h.at.pop()
		out = append(out, h.ei[at][0])
		h.ei[at] = h.ei[at][1:]
	}
	return out
}

// TestListWheelMatchesHeap drives the matured list wheel and the maturation
// heap it replaced the way the scheduler does: entries pushed during a scan
// and at dispatch, with data-ready cycles from well below the current cycle
// (clamped by the wheel) to 600 cycles ahead, scans at irregular cycles,
// shifts and resets. Every scan must pop the same set of entries, and
// afterwards the wheel's minimum must equal the heap's.
func TestListWheelMatchesHeap(t *testing.T) {
	const entries = 256
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := int64(64) << (seed % 4)
		var q listWheel
		q.init(int(size))
		q.next = make([]int32, entries)
		h := &timedHeap{ei: map[int64][]int32{}}
		free := make([]int32, 0, entries)
		for e := entries - 1; e >= 0; e-- {
			free = append(free, int32(e))
		}
		var cycle int64
		for step := 0; step < 20000; step++ {
			// The scheduler scans at least once by the wheel's minimum, so
			// only pushes and short steps may go without a scan.
			mayIdle := false
			switch op := rng.Intn(100); {
			case op < 50 && len(free) > 0:
				ei := free[len(free)-1]
				free = free[:len(free)-1]
				at := cycle - 50 + int64(rng.Intn(651))
				if rng.Intn(20) == 0 {
					at = cycle + size*int64(1+rng.Intn(4))
				}
				q.push(at, cycle, ei)
				h.push(at, ei)
				mayIdle = true
			case op < 85:
				cycle += 1 + int64(rng.Intn(4))
				mayIdle = cycle <= q.lo
			case op < 92:
				cycle += 1000 + int64(rng.Intn(100000))
			case op < 95:
				kd := int64(1+rng.Intn(1<<20)) << rng.Intn(20)
				q.shift(kd)
				shifted := map[int64][]int32{}
				for at, es := range h.ei {
					shifted[at+kd] = es
				}
				h.ei = shifted
				for i := range h.at {
					h.at[i] += kd
				}
				cycle += kd
			case op < 97:
				q.reset()
				h = &timedHeap{ei: map[int64][]int32{}}
				free = free[:0]
				for e := entries - 1; e >= 0; e-- {
					free = append(free, int32(e))
				}
				cycle = 0
			}
			if mayIdle && rng.Intn(3) == 0 {
				continue // no scan this cycle
			}
			var got []int32
			for head := q.pop(cycle); head >= 0; head = q.pop(cycle) {
				for ei := head; ei >= 0; ei = q.next[ei] {
					got = append(got, ei)
				}
			}
			want := h.popTo(cycle)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: scan at %d popped %v, heap %v", seed, step, cycle, got, want)
			}
			free = append(free, got...)
			if wm, ok := h.at.min(); ok != (q.busy > 0) || (ok && wm != q.lo) {
				t.Fatalf("seed %d step %d: min %d (busy %d), heap (%d, %v)", seed, step, q.lo, q.busy, wm, ok)
			}
		}
		if len(q.slot) <= int(size) {
			t.Fatalf("seed %d: the wheel never grew past %d buckets", seed, size)
		}
	}
}
