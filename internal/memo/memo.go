// Package memo is a content-addressed cache of simulator measurements. A
// measurement under the evaluator protocol — reset hierarchy, warm the
// LLC-resident regions, one throwaway run, one measured run — is a pure
// function of the machine model, the fault-injection model, the translated
// program, the iteration count, and the warmed regions, so its Result can
// be reused wherever the same fingerprint recurs: the per-flavour
// measurements hefopt re-runs after each search, sensitivity trials whose
// perturbed machine coincides, and SSB stages sharing an operator across
// queries and engines.
//
// Keys are 128 bits of SHA-256 over a canonical length-prefixed encoding of
// every semantic input. Nothing is keyed by pointer identity or by name
// alone: two CPU models with the same name but different geometry (a
// perturbed clone, say) fingerprint differently, as do programs differing
// in any instruction, operand, or address-stream field.
package memo

import (
	"sync"
	"sync/atomic"

	"hef/internal/cache"
	"hef/internal/fpenc"
	"hef/internal/isa"
	"hef/internal/uarch"
)

// Key is a 128-bit content fingerprint.
type Key [16]byte

// Protocol distinguishes the measurement protocols that may share one
// cache. The same (machine, program, iters, warm) inputs yield different
// Results under different protocols — a throwaway settling run changes the
// stream-prefetcher state the measured run sees — so the protocol is part
// of the fingerprint.
type Protocol uint8

const (
	// ProtoEvaluator is SimEvaluator.Run: reset the hierarchy, warm the
	// LLC-resident regions, one throwaway run, one measured run.
	ProtoEvaluator Protocol = iota + 1
	// ProtoStage is the experiment harness's stage timing: a reset
	// hierarchy, warm, and a single measured run.
	ProtoStage
)

// WarmRange is one region warmed into the hierarchy before measuring.
type WarmRange = cache.WarmRange

// enc is the canonical encoding accumulator shared with the skeleton cache
// (internal/fpenc); the method aliases keep this package's encoders readable.
type enc struct {
	fpenc.E
}

func (e *enc) u64(v uint64)   { e.U64(v) }
func (e *enc) i(v int)        { e.Int(v) }
func (e *enc) f(v float64)    { e.F64(v) }
func (e *enc) boolean(v bool) { e.Bool(v) }
func (e *enc) str(s string)   { e.Str(s) }

func (e *enc) cpu(c *isa.CPU) {
	e.str(c.Name)
	e.i(len(c.Ports))
	for i := range c.Ports {
		p := &c.Ports[i]
		e.str(p.Name)
		for _, a := range p.Accepts {
			e.boolean(a)
		}
	}
	e.i(len(c.Vec512Ports))
	for _, p := range c.Vec512Ports {
		e.i(p)
	}
	e.i(c.DecodeWidth)
	e.i(c.RetireWidth)
	e.i(c.ROBSize)
	e.i(c.RSSize)
	e.i(c.LoadQueue)
	e.i(c.StoreQueue)
	e.i(c.LineFillBuffers)
	e.i(c.GPRegs)
	e.i(c.VecRegs)
	for _, g := range []isa.CacheGeom{c.L1D, c.L2, c.LLC} {
		e.i(g.SizeBytes)
		e.i(g.Ways)
		e.i(g.LineBytes)
		e.i(g.Latency)
	}
	e.i(c.MemLatency)
	e.i(int(c.VecWidth))
	e.f(c.Freq.ScalarGHz)
	e.f(c.Freq.AVX2GHz)
	e.f(c.Freq.AVX512GHz)
	e.f(c.Freq.AVX512HeavyGHz)
	e.f(c.Freq.UncoreGovPenalty)
	e.f(c.Freq.MinGHz)
}

func (e *enc) perturb(p *uarch.Perturb) {
	// A perturbation with every rate zero is the identity no matter its
	// seed; encode it as absent so sensitivity trials share entries exactly
	// when the perturbed machine coincides with the nominal one.
	if p != nil && p.LatJitter == 0 && p.OccJitter == 0 && p.CacheJitter == 0 &&
		p.FreqJitter == 0 && p.PortFaultRate == 0 {
		p = nil
	}
	if p == nil {
		e.boolean(false)
		return
	}
	e.boolean(true)
	e.u64(p.Seed)
	e.f(p.LatJitter)
	e.f(p.OccJitter)
	e.f(p.CacheJitter)
	e.f(p.FreqJitter)
	e.f(p.PortFaultRate)
}

// Fingerprint computes the content key of one measurement under the given
// protocol. warm lists the regions warmed before the runs, in warming
// order. The program component is encoded by Program.AppendFingerprint, the
// same encoding the simulator's skeleton cache keys on.
func Fingerprint(proto Protocol, cpu *isa.CPU, p *uarch.Perturb, prog *uarch.Program, iters int64, warm []WarmRange) Key {
	var e enc
	e.Buf = make([]byte, 0, 512)
	e.Buf = append(e.Buf, byte(proto))
	e.cpu(cpu)
	e.perturb(p)
	prog.AppendFingerprint(&e.E)
	e.u64(uint64(iters))
	e.i(len(warm))
	for _, w := range warm {
		e.u64(w.Base)
		e.u64(w.Region)
	}
	return Key(fpenc.Sum128(e.Buf))
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// Hits and Misses count Get calls; Entries counts stored Results.
	Hits, Misses, Entries uint64
}

// HitRate is Hits/(Hits+Misses), 0 on an unused cache.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Cache is a concurrency-safe content-addressed store of measurement
// Results. Results are deep-copied on both Put and Get, so callers may
// freely mutate what they pass in and get back (the experiment harness
// scales and accumulates counters in place). A nil *Cache is valid and
// never hits, so callers thread an optional cache without branching.
type Cache struct {
	mu sync.Mutex
	m  map[Key]*uarch.Result
	// hits/misses are atomics, not mu-guarded fields: Stats is polled from
	// the telemetry scrape path while workers are mid-Get, and the counters
	// must stay exact without the poller contending for the map lock.
	hits   atomic.Uint64
	misses atomic.Uint64
	onPut  func(Key, *uarch.Result)
}

// Process-wide totals across every Cache, for telemetry polling. Keeping
// them here (bumped alongside the per-cache counters) lets the metrics
// layer observe memo behaviour without this package importing it.
var (
	totalHits   atomic.Uint64
	totalMisses atomic.Uint64
)

// Totals reports hit/miss counts accumulated across all caches since
// process start (or the last ResetTotals).
func Totals() (hits, misses uint64) {
	return totalHits.Load(), totalMisses.Load()
}

// ResetTotals zeroes the process-wide counters. Test-only.
func ResetTotals() {
	totalHits.Store(0)
	totalMisses.Store(0)
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{m: make(map[Key]*uarch.Result)}
}

// Get returns a private copy of the Result stored under k, if any.
func (c *Cache) Get(k Key) (*uarch.Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[k]
	if !ok {
		c.misses.Add(1)
		totalMisses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	totalHits.Add(1)
	return r.Clone(), true
}

// Put stores a private copy of r under k. Re-putting a key overwrites;
// identical content produces identical Results, so the overwrite is
// invisible (and does not re-fire the OnPut hook).
func (c *Cache) Put(k Key, r *uarch.Result) {
	if c == nil || r == nil {
		return
	}
	c.mu.Lock()
	_, existed := c.m[k]
	c.m[k] = r.Clone()
	hook := c.onPut
	c.mu.Unlock()
	if hook != nil && !existed {
		// The hook gets its own clone, outside the lock: a persistence
		// subscriber may serialise at leisure without blocking Gets, and
		// may not alias the stored entry.
		hook(k, r.Clone())
	}
}

// OnPut registers fn to be called once for each key newly inserted from now
// on — the subscription point for a persistence layer. fn runs on the
// putting goroutine, outside the cache lock, with a private copy of the
// Result. Overwrites of existing keys do not fire. At most one hook is
// supported; registering replaces the previous one.
func (c *Cache) OnPut(fn func(Key, *uarch.Result)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onPut = fn
}

// Range calls fn for every stored entry, in unspecified order, under the
// cache lock — fn must not call back into the cache and must not retain or
// mutate r. It exists for compaction: rewriting a persistent backing from
// the live entries.
func (c *Cache) Range(fn func(k Key, r *uarch.Result)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, r := range c.m {
		fn(k, r)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	entries := uint64(len(c.m))
	c.mu.Unlock()
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: entries}
}
