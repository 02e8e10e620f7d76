package cache

import (
	"errors"
	"fmt"
	"sync"
)

// WarmRange is one region warmed into the hierarchy before measuring.
type WarmRange struct {
	Base, Region uint64
}

// shape is the part of a level's geometry that decides where lines go:
// line bytes, set count and ways. Latencies do not enter.
type shape struct {
	lineShift uint
	setMask   uint64
	ways      int
}

func (h *Hierarchy) shapes() [3]shape {
	var s [3]shape
	for i, l := range []*level{h.l1, h.l2, h.llc} {
		s[i] = shape{lineShift: l.setShift, setMask: l.setMask, ways: l.ways}
	}
	return s
}

// WarmState is the state Reset followed by Warm of each range, in order,
// leaves a hierarchy in. Those contents depend only on the levels' shapes
// and the range list, so the first Apply builds the state on its hierarchy
// and saves it, and every later Apply restores the saved copy instead of
// replaying the warm loop. The access clock travels with the snapshot;
// every cache decision and counter depends only on clock deltas, so a
// restored hierarchy behaves exactly like a freshly warmed one.
//
// A WarmState is safe for concurrent use: concurrent first users wait
// while one of them builds it. Its memory (one snapshot) lives as long as
// the WarmState does.
type WarmState struct {
	ranges []WarmRange
	once   sync.Once
	shapes [3]shape
	snap   Snapshot
}

// NewWarmState returns the unbuilt warm state of ranges.
func NewWarmState(ranges []WarmRange) *WarmState {
	return &WarmState{ranges: ranges}
}

// Ranges returns the range list the state warms, in order.
func (w *WarmState) Ranges() []WarmRange { return w.ranges }

// Apply puts h into the warm state: the first call builds it on h, every
// later one restores it. h must have the shapes of the hierarchy the state
// was built on; Apply fails otherwise.
func (w *WarmState) Apply(h *Hierarchy) error {
	built := false
	w.once.Do(func() {
		h.Reset()
		for _, r := range w.ranges {
			h.Warm(r.Base, r.Region)
		}
		h.Save(&w.snap)
		w.shapes = h.shapes()
		built = true
	})
	switch {
	case built:
		return nil
	case !w.snap.Valid():
		return errors.New("cache: warm state was never built")
	case h.shapes() != w.shapes:
		return fmt.Errorf("cache: warm state built for shapes %+v, applied to %+v", w.shapes, h.shapes())
	}
	h.Restore(&w.snap)
	return nil
}
