// Package phasecounter implements Doppel-style phase-reconciled
// counters for skewed workloads (Narula's ddtxn: split contended keys
// into per-core slices, reconcile periodically in phases).
//
// A Counter starts in the plain phase: a single shared atomic cell.
// Each update stamps the writer's driver slot, so the cell itself
// doubles as the contention probe — when updates keep arriving from
// different slots, the cell is demonstrably bouncing between cores,
// and the counter splits into per-driver slices (one padded cache
// line per scheduler slot). Subsequent updates land in the caller's
// own slice, so a viral key stops bouncing one cache line across
// every core. A Domain-wide reconcile tick folds slice deltas back into the
// base cell and records the folded value as the counter's reconciled
// reading; keys that stay cold for a few epochs demote back to the
// plain phase.
//
// The discipline mirrors the predicate index's lock-free
// copy-on-write reads: the slice block is published through an atomic
// pointer, writers never block readers, and no update is ever lost —
// a demoted counter keeps its block so stragglers that raced the
// demotion still count. Value() is exact at quiescence; during a fold
// it may transiently undercount (a delta in flight between a slice
// and the base), never overcount. The triggerID sets themselves stay
// copy-on-write (they are read-only on the match path); what this
// package slices is the mutable per-key state riding next to them:
// probe/match tallies and rate counters.
package phasecounter

import (
	"sync"
	"sync/atomic"
	"time"
)

// promoteSwitches is the cumulative writer-switch count that splits a
// plain counter. A switch means the update arrived from a different
// driver slot than the previous one — the cache line provably moved
// between cores. Single-writer keys never switch and never split; a
// key promoted on sporadic cross-driver traffic costs one slice block
// and demotes again once it goes cold.
const promoteSwitches = 8

// demoteIdleEpochs is how many consecutive reconcile epochs with zero
// sliced activity demote a sliced counter back to plain. Lukewarm keys
// stay sliced — slices are cheap once allocated — only cold keys fold
// back.
const demoteIdleEpochs = 3

// demoteIdleFor is the wall-time floor under demoteIdleEpochs: a
// sliced counter demotes only once it has also seen no sliced activity
// for this long. Epochs are as short as the reconciler makes them, so
// without the floor a reconciler that ticks back to back could demote
// a counter whose writers merely paused for a few microseconds.
const demoteIdleFor = 250 * time.Millisecond

// NoSlot is the slot value for callers with no driver identity (a
// synchronous embedder, a control-plane goroutine): their updates stay
// on the plain path, which is always correct, just not sliced.
const NoSlot = -1

// Phase is a counter's current write mode.
type Phase uint8

const (
	// PhasePlain: updates CAS a single shared cell.
	PhasePlain Phase = iota
	// PhaseSliced: updates land in the caller's per-slot slice.
	PhaseSliced
)

func (p Phase) String() string {
	if p == PhaseSliced {
		return "sliced"
	}
	return "plain"
}

// slotCell is one per-driver slice, padded to its own cache line so
// neighboring slots never false-share.
type slotCell struct {
	v atomic.Int64
	_ [56]byte
}

// block is the sliced state of a promoted counter. It is published
// through Counter.block and never freed: a demoted counter keeps its
// block so an update that loaded the pointer just before demotion
// still lands somewhere Value() reads.
type block struct {
	slots []slotCell
	// demoted routes new updates back through the plain CAS path while
	// the block drains; reconcile keeps folding stragglers.
	demoted atomic.Bool
	// reconciled is the counter's value as of the last fold — the
	// reading reorganization decisions and snapshots consume (stale by
	// at most one epoch).
	reconciled atomic.Int64
	// folds counts reconcile epochs applied to this counter.
	folds atomic.Int64
	// lastFold is the wall clock of the latest fold (unix nanos).
	lastFold atomic.Int64
	// idle counts consecutive zero-delta epochs and activeAt is the
	// unix-nano time of the last epoch with sliced activity (or of the
	// promotion). The reconciler owns both while the block is live and
	// Split's re-arm owns them while it is demoted; the demoted flag
	// hands them over.
	idle     int
	activeAt int64
}

// Counter is a phase-reconciled int64. The zero value is a plain
// counter ready for use; it may be embedded by value. Updates go
// through Add with the caller's driver slot (-1 when the caller has
// no slot identity, e.g. a synchronous embedder).
type Counter struct {
	base atomic.Int64
	// owner is the last plain-phase writer's slot + 1 (0 = none yet);
	// switches is the cumulative cross-slot writer-switch count.
	owner    atomic.Uint32
	switches atomic.Uint32
	block    atomic.Pointer[block]
}

// Add adds delta, routing through the counter's current phase. slot is
// the caller's stable driver slot from taskq (-1 = no slot identity:
// the update stays on the plain path, which is always correct, just
// not contention-free).
func (c *Counter) Add(d *Domain, slot int, delta int64) {
	if b := c.block.Load(); b != nil && !b.demoted.Load() {
		if slot >= 0 {
			b.slots[uint(slot)%uint(len(b.slots))].v.Add(delta)
			return
		}
		c.base.Add(delta)
		return
	}
	// Plain phase: the shared cell itself is the contention probe —
	// updates stamp the writer's slot, and cross-slot switches mean the
	// cache line is provably migrating between cores.
	c.base.Add(delta)
	if slot < 0 {
		return
	}
	me := uint32(slot) + 1
	if prev := c.owner.Load(); prev != me {
		c.owner.Store(me)
		if prev != 0 && c.switches.Add(1) >= promoteSwitches && d != nil {
			c.Split(d)
		}
	}
}

// Split promotes the counter to the sliced phase (or re-arms a
// demoted block). Idempotent; safe under concurrent Adds — updates
// racing the promotion land in the base cell and stay counted.
// Callers that know a counter is guaranteed-hot (index-wide tallies)
// call Split at construction instead of waiting for the CAS probe.
func (c *Counter) Split(d *Domain) {
	if d == nil || d.slots <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if b := c.block.Load(); b != nil {
		if b.demoted.Load() {
			b.idle = 0
			b.activeAt = time.Now().UnixNano()
			b.demoted.Store(false)
			c.switches.Store(0)
			d.promotions.Add(1)
		}
		return
	}
	now := time.Now().UnixNano()
	b := &block{slots: make([]slotCell, d.slots), activeAt: now}
	b.lastFold.Store(now)
	c.switches.Store(0)
	c.block.Store(b)
	d.reg = append(d.reg, c)
	d.promotions.Add(1)
}

// Reset sets the counter to v, discarding any slice deltas. It is not
// atomic with respect to concurrent Adds — an add in flight during the
// reset may land before or after it. Embedders whose replacement
// semantics already tolerate bounded misattribution (the profile
// sketch's space-saving admission) use it to recycle a counter for a
// new key; exact embedders must quiesce writers first.
func (c *Counter) Reset(v int64) {
	if b := c.block.Load(); b != nil {
		for i := range b.slots {
			b.slots[i].v.Store(0)
		}
		b.reconciled.Store(v)
	}
	c.base.Store(v)
	c.owner.Store(0)
	c.switches.Store(0)
}

// Value returns the exact current total: base plus every live slice.
// During a concurrent fold it may transiently miss a delta in transit
// (never double count); at quiescence it is exact.
func (c *Counter) Value() int64 {
	v := c.base.Load()
	if b := c.block.Load(); b != nil {
		for i := range b.slots {
			v += b.slots[i].v.Load()
		}
	}
	return v
}

// Reconciled returns the counter's value as of the last reconcile
// fold — stale by at most one epoch. Plain counters (never promoted)
// reconcile trivially: their base cell is always current.
func (c *Counter) Reconciled() int64 {
	if b := c.block.Load(); b != nil {
		return b.reconciled.Load()
	}
	return c.base.Load()
}

// Phase reports the counter's current write mode. A demoted counter
// reports PhasePlain even though it retains its slice block.
func (c *Counter) Phase() Phase {
	if b := c.block.Load(); b != nil && !b.demoted.Load() {
		return PhaseSliced
	}
	return PhasePlain
}

// Slices reports the live slice count (0 in the plain phase).
func (c *Counter) Slices() int {
	if b := c.block.Load(); b != nil && !b.demoted.Load() {
		return len(b.slots)
	}
	return 0
}

// Reconciles reports how many reconcile epochs have folded this
// counter (0 if never promoted).
func (c *Counter) Reconciles() int64 {
	if b := c.block.Load(); b != nil {
		return b.folds.Load()
	}
	return 0
}

// LastReconcile reports the wall clock of the counter's latest fold
// (zero time if never promoted).
func (c *Counter) LastReconcile() time.Time {
	if b := c.block.Load(); b != nil {
		if ns := b.lastFold.Load(); ns != 0 {
			return time.Unix(0, ns)
		}
	}
	return time.Time{}
}

// Domain groups counters that share one slice geometry (the driver
// pool's slot count) and one reconcile clock. An Index or Sketch owns
// a Domain; the embedding system ticks Reconcile on its epoch timer.
type Domain struct {
	slots int

	mu  sync.Mutex
	reg []*Counter // every promoted counter, in promotion order

	promotions atomic.Int64
	demotions  atomic.Int64
	reconciles atomic.Int64
	lastRecon  atomic.Int64 // unix nanos
}

// NewDomain creates a Domain whose sliced counters have one slice per
// slot. slots is the stable driver count from taskq (clamped to ≥ 1).
func NewDomain(slots int) *Domain {
	if slots < 1 {
		slots = 1
	}
	return &Domain{slots: slots}
}

// Slots reports the slice geometry.
func (d *Domain) Slots() int {
	if d == nil {
		return 0
	}
	return d.slots
}

// Reconcile runs one epoch: every promoted counter's slice deltas fold
// into its base cell and its reconciled reading refreshes; counters
// cold for demoteIdleEpochs epochs and for demoteIdleFor demote to
// plain. Exactness: a slice delta is captured by the fold's Swap or
// remains in the slice for the next fold — it is never dropped, even
// for demoted blocks.
func (d *Domain) Reconcile() {
	if d == nil {
		return
	}
	now := time.Now().UnixNano()
	d.mu.Lock()
	reg := d.reg
	d.mu.Unlock()
	for _, c := range reg {
		b := c.block.Load()
		var delta int64
		for i := range b.slots {
			delta += b.slots[i].v.Swap(0)
		}
		if delta != 0 {
			c.base.Add(delta)
		}
		b.reconciled.Store(c.base.Load())
		b.folds.Add(1)
		b.lastFold.Store(now)
		if !b.demoted.Load() {
			if delta == 0 {
				if b.idle++; b.idle >= demoteIdleEpochs && now-b.activeAt >= int64(demoteIdleFor) {
					b.demoted.Store(true)
					d.demotions.Add(1)
				}
			} else {
				b.idle = 0
				b.activeAt = now
			}
		}
	}
	d.reconciles.Add(1)
	d.lastRecon.Store(now)
}

// DomainStats is an introspection snapshot of a Domain.
type DomainStats struct {
	// Slots is the slice geometry (per-driver slice count).
	Slots int `json:"slots"`
	// Sliced is how many counters are currently in the sliced phase.
	Sliced int `json:"sliced"`
	// Promotions and Demotions count phase transitions since creation.
	Promotions int64 `json:"promotions"`
	Demotions  int64 `json:"demotions"`
	// Reconciles counts completed epochs; LastReconcileAgeNs is the age
	// of the latest (-1 if none yet).
	Reconciles         int64 `json:"reconciles"`
	LastReconcileAgeNs int64 `json:"last_reconcile_age_ns"`
}

// Stats snapshots the domain.
func (d *Domain) Stats() DomainStats {
	if d == nil {
		return DomainStats{}
	}
	st := DomainStats{
		Slots:              d.slots,
		Promotions:         d.promotions.Load(),
		Demotions:          d.demotions.Load(),
		Reconciles:         d.reconciles.Load(),
		LastReconcileAgeNs: -1,
	}
	if ns := d.lastRecon.Load(); ns != 0 {
		st.LastReconcileAgeNs = time.Since(time.Unix(0, ns)).Nanoseconds()
	}
	d.mu.Lock()
	reg := d.reg
	d.mu.Unlock()
	for _, c := range reg {
		if c.Phase() == PhaseSliced {
			st.Sliced++
		}
	}
	return st
}
