package uarch

import (
	"math"
	"math/bits"
)

// Timing wheels for the slow path's event queues.
//
// Every event the scheduler queues is a cycle stamp a bounded distance
// ahead of the current cycle: a completion is at most a memory latency plus
// an instruction latency away. A wheel keeps one bucket per cycle of a
// power-of-two window, a bitmap of the non-empty buckets, and the smallest
// stamp held, so push is O(1), the minimum is a field read, and removing
// everything up to a cycle touches only the buckets it empties plus a short
// bitmap scan to the next non-empty one.
//
// The window is [base, base+size): base is the last cycle the wheel was
// drained to, and stamp t lives in bucket (t-off)&(size-1). A stamp beyond
// the window doubles the wheel and rehashes it, so correctness never
// depends on the initial size. shift moves every stamp by the same delta
// with one add to off, which is how the steady-state fast path advances the
// queues.

// minWheelSize is the smallest bucket count: one bitmap word.
const minWheelSize = 64

// wheel is the bucket index both wheel kinds share. slot[i] is the payload
// of bucket i, zero when the bucket is empty; the kinds differ only in what
// a non-zero payload means.
type wheel struct {
	slot []int32
	bits []uint64 // bit i set iff slot[i] != 0
	mask int64    // bucket count - 1
	off  int64    // stamp t lives in bucket (t-off)&mask
	base int64    // lowest stamp the window holds
	lo   int64    // smallest stamp held, math.MaxInt64 when empty
	busy int      // non-empty buckets
}

func (w *wheel) init(size int) {
	n := minWheelSize
	for n < size {
		n *= 2
	}
	w.slot = make([]int32, n)
	w.bits = make([]uint64, n/64)
	w.mask = int64(n - 1)
	if w.busy == 0 {
		w.lo = math.MaxInt64
	}
}

func (w *wheel) bucket(t int64) int { return int((t - w.off) & w.mask) }

// add prepares the bucket for stamp t and returns its index. A stamp below
// base is clamped to base: it is removed by the next drain either way, and
// no caller reads the minimum between such a push and that drain.
func (w *wheel) add(t int64) int {
	if t < w.base {
		t = w.base
	}
	if t-w.base > w.mask {
		w.grow(t)
	}
	i := w.bucket(t)
	if w.slot[i] == 0 {
		w.bits[i>>6] |= 1 << (i & 63)
		w.lo = min(w.lo, t)
		w.busy++
	}
	return i
}

// take empties the bucket of the smallest stamp and returns its payload.
// The caller guarantees busy > 0.
func (w *wheel) take() int32 {
	i := w.bucket(w.lo)
	v := w.slot[i]
	w.slot[i] = 0
	w.bits[i>>6] &^= 1 << (i & 63)
	w.busy--
	if w.busy > 0 {
		w.lo = w.nextFrom(w.lo + 1)
	} else {
		w.lo = math.MaxInt64
	}
	return v
}

// advance moves the window's floor to t once every stamp <= t is gone.
func (w *wheel) advance(t int64) {
	if t > w.base {
		w.base = t
	}
}

// nextFrom returns the smallest stamp >= t with a non-empty bucket. The
// caller guarantees one exists and t >= base, so the first set bit at or
// after t's bucket, wrapping around, is that stamp.
func (w *wheel) nextFrom(t int64) int64 {
	i := w.bucket(t)
	wi := i >> 6
	word := w.bits[wi] &^ (1<<(i&63) - 1)
	for range len(w.bits) + 1 {
		if word != 0 {
			j := wi<<6 | bits.TrailingZeros64(word)
			return t + (int64(j-i) & w.mask)
		}
		wi++
		if wi == len(w.bits) {
			wi = 0
		}
		word = w.bits[wi]
	}
	return t
}

// grow doubles the window until stamp t fits and rehashes every bucket.
func (w *wheel) grow(t int64) {
	oldSlot, oldBits, oldMask := w.slot, w.bits, w.mask
	size := int(w.mask + 1)
	for int64(size) <= t-w.base {
		size *= 2
	}
	w.init(size)
	b0 := int((w.base - w.off) & oldMask)
	for wi, word := range oldBits {
		for ; word != 0; word &= word - 1 {
			i := wi<<6 | bits.TrailingZeros64(word)
			stamp := w.base + (int64(i-b0) & oldMask)
			j := w.bucket(stamp)
			w.slot[j] = oldSlot[i]
			w.bits[j>>6] |= 1 << (j & 63)
		}
	}
}

// shift moves every stamp, and the window, forward by kd cycles.
func (w *wheel) shift(kd int64) {
	w.off += kd
	w.base += kd
	if w.busy > 0 {
		w.lo += kd
	}
}

// reset empties the wheel and rewinds its window to cycle 0, keeping its
// size.
func (w *wheel) reset() {
	for wi, word := range w.bits {
		for ; word != 0; word &= word - 1 {
			w.slot[wi<<6|bits.TrailingZeros64(word)] = 0
		}
		w.bits[wi] = 0
	}
	w.off, w.base, w.lo, w.busy = 0, 0, math.MaxInt64, 0
}

// countWheel is a multiset of cycle stamps: slot[i] counts the entries of
// bucket i. It backs the load, store and fill-buffer queues and the
// in-flight completions, which are only ever counted, drained and asked for
// their minimum.
type countWheel struct {
	wheel
	n int
}

func (q *countWheel) push(t int64) {
	q.slot[q.add(t)]++
	q.n++
}

// drain removes every entry <= t and returns how many it removed. A later
// push may use stamp t itself; it counts in len until the next drain. The
// common case, nothing due, is one compare.
func (q *countWheel) drain(t int64) int {
	removed := 0
	if q.lo <= t {
		removed = q.drainDue(t)
	}
	q.advance(t)
	return removed
}

func (q *countWheel) drainDue(t int64) int {
	removed := 0
	for q.lo <= t {
		removed += int(q.take())
	}
	q.n -= removed
	return removed
}

func (q *countWheel) len() int { return q.n }

// min returns the smallest stamp held.
func (q *countWheel) min() (int64, bool) { return q.lo, q.n > 0 }

// count returns how many entries hold stamp t (t inside the window).
func (q *countWheel) count(t int64) int { return int(q.slot[q.bucket(t)]) }

func (q *countWheel) reset() {
	q.wheel.reset()
	q.n = 0
}

// listWheel holds ROB entries keyed by their data-ready cycle. Bucket i's
// payload is its first entry plus one; next[e] links entry e to the next in
// its bucket, or is -1. The order within a bucket, and between buckets
// popped together, is arbitrary: the consumer re-sorts entries by age.
type listWheel struct {
	wheel
	next []int32
}

// push adds entry ei, data-ready at cycle t, at the current cycle now. A
// stamp below now is clamped to now: the entry is popped by the next scan
// either way, and the minimum is read only after that scan's pops.
func (q *listWheel) push(t, now int64, ei int32) {
	if q.busy == 0 {
		// Nothing is held, so the floor may jump to the present; this keeps
		// the window short after long stretches without scans.
		q.advance(now)
	}
	if t < now {
		t = now
	}
	i := q.add(t)
	q.next[ei] = q.slot[i] - 1
	q.slot[i] = ei + 1
}

// pop removes the earliest bucket if its stamp is <= t and returns the head
// of its list, or -1 once no bucket <= t remains.
func (q *listWheel) pop(t int64) int32 {
	if q.lo > t {
		q.advance(t)
		return -1
	}
	return q.take() - 1
}
