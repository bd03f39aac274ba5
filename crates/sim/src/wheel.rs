//! Hierarchical timing wheel: the engine's event queue.
//!
//! A discrete-event engine under RTO churn schedules and drains tens of
//! thousands of timers whose deadlines cluster a few RTTs out. The binary
//! heap this replaced paid `O(log n)` sift work per push and pop; the
//! Varghese–Lauer hierarchical wheel below makes both `O(1)` amortized: a
//! push is two shifts, an XOR, and a splice into the slot the deadline
//! hashes to; when a level-0 slot comes due its keys are drained into one
//! sorted *run* and popped from the run's tail, and empty slots are
//! bitmap-skipped.
//!
//! Two ablations, each ten alternating benchmark pairs (EXPERIMENTS.md,
//! "Ablation table" and "Sorted runs"). PR 16, wheel against a plain
//! binary heap: the wheel pays ≈ 26 % of `scn_corpus` and ≈ 11 % of
//! `sim_fabric` `ops_per_s` and won every pair — measured while the wheel
//! still served each due slot through a small binary heap of its own.
//! PR 22, the sorted run against that per-slot heap: the run pays ≈ 18 %
//! of `scn_corpus` and ≈ 12 % of `sim_fabric` and won every pair. The two
//! were measured against different baselines and do not add.
//!
//! ## Shape
//!
//! [`LEVELS`] levels of 256 slots each, absolutely indexed: level `k`'s
//! slot width is `2^(10 + 8k)` ps (level 0 ≈ 1 ns). `Time` is a `u64` of
//! picoseconds, so a tick has at most 54 bits and seven levels cover every
//! representable deadline — nothing ever waits outside the wheel.
//! An event lands on the level where its tick first differs from the
//! wheel's current tick — equivalently, the byte index of the highest set
//! bit of `(time >> 10) ^ (cur >> 10)` — which keeps every level-`k` slot
//! strictly later than everything on level `k-1`. Draining a higher-level
//! slot re-places its events relative to the advanced clock (a *cascade*),
//! so each event moves at most [`LEVELS`] times in its life.
//!
//! ## Ordering: the run
//!
//! The engine's determinism contract — pops strictly ordered by
//! `(time, seq)` — survives because slot residency is only ever a
//! *coarsening*: everything outside the current slot is provably later,
//! and the keys that share the current slot are sorted once, when the slot
//! is drained, into `ready` (descending, so a pop is `Vec::pop`). Nothing
//! between "slot is due" and "key is popped" sifts. A slot list is LIFO
//! and every cascade reverses it, so a batch usually reaches the sort
//! already monotone and the sort is one pass. A push at or before the
//! slot being served is binary-searched into the run; the scenario corpus
//! makes ≤ 49 of those per 700 k events.
//!
//! A run is not small. Measured on the four cells that are 96 % of
//! `scn_corpus` (throwaway counters, PR 22):
//!
//! | cell | events | timers fired | pops finding 1 key in the run | ≥ 63 keys | pushes to level 0 / 1 / 2 / 3 | pushes straight into the run |
//! |---|---|---|---|---|---|---|
//! | `fig5_alternation` mtp, seed 5 | 1 187 562 | 748 956 | 434 150 | 585 284 | 276 765 / 160 968 / 784 481 / 0 | 1 |
//! | `fig5_alternation` tcp-dctcp, seed 5 | 974 879 | 603 137 | 309 998 | 250 930 | 229 454 / 141 420 / 634 553 / 0 | 1 |
//! | `tenants_elephant_mice` mtp, seed 31 | 713 175 | 145 546 | 572 552 | 26 879 | 139 780 / 419 470 / 150 179 / 2 003 | 32 |
//! | `tenants_elephant_mice` mtp, seed 47 | 734 656 | 146 349 | 594 541 | 22 317 | 144 825 / 434 892 / 150 806 / 2 338 | 49 |
//!
//! Half of `fig5`'s pops come from a run of more than 63 keys that all
//! carry the same picosecond: [`RtoTimer::sync`](crate::RtoTimer::sync),
//! through which every sending node re-arms, does not cancel the timer it
//! supersedes, so live timers pile up at shared deadlines and reach a
//! level-0 slot thousands at a time (DESIGN.md, "Stale timers").
//!
//! ## Cancellation
//!
//! Slot lists are doubly linked, so [`EventQueue::cancel`] *detaches* a
//! parked event in `O(1)` and leaves no tombstone to cascade and pop
//! later. Its only callers today are `mtp-bench`'s synthetic `hotpath`
//! workloads and tests; no endpoint cancels. A key that has already joined
//! the run is not detachable: `cancel` refuses (returns `false`) and the
//! engine blanks the payload slab entry instead, the generation-stamped
//! tombstone contract the binary heap required for every cancel.

use crate::time::Time;

/// What the event queue orders: 20 bytes of `(time, seq)` ordering key
/// plus a payload-slab slot (or a tagged link id; see the engine's
/// `TXDONE_TAG`/`DELIVER_TAG`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EventKey {
    pub(crate) time: Time,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// log2 of the level-0 slot width in picoseconds (2^10 ps ≈ 1 ns).
const SLOT_SHIFT: u32 = 10;
/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels: a tick is `64 - SLOT_SHIFT = 54` bits, so the highest
/// differing tick bit always falls on one of `ceil(54 / 8) = 7` levels.
const LEVELS: usize = 7;

/// The tick (level-0 slot number) containing a timestamp.
#[inline]
fn tick(t: u64) -> u64 {
    t >> SLOT_SHIFT
}

/// One parked event: its key plus the intrusive links to its slot-list
/// neighbours. Slots are doubly-linked lists threaded through one shared
/// slab, so both a cascade and a cancel are pointer relinks — no per-slot
/// `Vec` whose capacity would churn as absolute slot indices march through
/// fresh slots, and no list walk to find a cancelled entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: EventKey,
    next: u32,
    prev: u32,
}

/// List terminator / empty-slot head.
const NIL: u32 = u32::MAX;

/// `prev` value marking an entry that is in no slot list: free, or its key
/// has joined the run. Distinguishes "unlinked" from
/// "linked at the head" (`prev == NIL`) so a stale cancel handle can never
/// unsplice a freelist node.
const UNLINKED: u32 = u32::MAX - 1;

/// The engine's pending-event queue: a hierarchical timing wheel feeding
/// the sorted run of the slot being served.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// Wheel clock: start of the slot currently being drained. Only ever
    /// moves forward, and never past the earliest pending event.
    cur: u64,
    /// The run being served: every key at or before the current level-0
    /// slot, sorted *descending* by `(time, seq)` so the earliest is the
    /// tail. All pops come through here.
    ready: Vec<EventKey>,
    /// `heads[k * SLOTS + i]`: head of the entry list for slot `i` of
    /// level `k` (`NIL` if empty). Order within a slot is irrelevant —
    /// the drain's sort restores total order when the slot is served.
    heads: Vec<u32>,
    /// Backing store for every parked entry; `free` recycles vacated
    /// indices, so steady-state churn allocates nothing once the slab has
    /// grown to the peak number of in-flight events.
    entries: Vec<Entry>,
    free: Vec<u32>,
    /// Occupancy bitmap per level (bit `i` set ⇔ slot `i` nonempty),
    /// so advancing skips empty slots with `trailing_zeros`.
    occupied: [[u64; SLOTS / 64]; LEVELS],
    /// Total pending events (ready + wheel).
    count: usize,
    /// Timestamp of the last popped event; pops must be monotone.
    #[cfg(debug_assertions)]
    last_pop: u64,
}

impl EventQueue {
    pub(crate) fn new() -> EventQueue {
        // Seed capacity for ~1k concurrent events so moderate workloads
        // never reallocate after construction; larger ones converge by
        // doubling during their warm-up.
        const SEED_CAP: usize = 1024;
        EventQueue {
            cur: 0,
            ready: Vec::with_capacity(SEED_CAP),
            heads: vec![NIL; LEVELS * SLOTS],
            entries: Vec::with_capacity(SEED_CAP),
            free: Vec::with_capacity(SEED_CAP),
            occupied: [[0; SLOTS / 64]; LEVELS],
            count: 0,
            #[cfg(debug_assertions)]
            last_pop: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Schedule `key`. `key.time` must be on or after the last popped
    /// event's time (the engine never schedules into the past).
    ///
    /// Returns a detach handle for [`EventQueue::cancel`]: the index of
    /// the wheel entry now holding the key, or [`NIL`] when the key went
    /// straight into the run (not detachable). The handle
    /// stays valid across cascades — relocation reuses the entry index —
    /// and is revalidated against `key.slot` on use, so callers may hold
    /// it without tracking the key's migration into the run.
    pub(crate) fn push(&mut self, key: EventKey) -> u32 {
        self.count += 1;
        self.place(key)
    }

    /// Route a key to the run or a wheel slot, relative to the current
    /// wheel clock.
    ///
    /// `key.time` may lie *before* the wheel clock: `cur` tracks the next
    /// occupied wheel slot, which `peek` can push well past the engine's
    /// `now` when the queue momentarily holds only far-future events (the
    /// engine keeps delivering from link propagation rings in between).
    /// Anything at or before the current slot is inserted into the run at
    /// its `(time, seq)` place — every wheel slot is strictly later than
    /// the current slot, so the minimum is always in `ready`.
    fn place(&mut self, key: EventKey) -> u32 {
        let t = tick(key.time.0);
        let c = tick(self.cur);
        if t <= c {
            let at = self.ready.partition_point(|k| *k > key);
            self.ready.insert(at, key);
            return NIL;
        }
        // Byte index of the highest differing tick bit picks the level.
        let level = ((63 - (t ^ c).leading_zeros()) / LEVEL_BITS) as usize;
        let idx = match self.free.pop() {
            Some(idx) => {
                self.entries[idx as usize].key = key;
                idx
            }
            None => {
                let idx = self.entries.len() as u32;
                self.entries.push(Entry {
                    key,
                    next: NIL,
                    prev: UNLINKED,
                });
                idx
            }
        };
        self.link(
            idx,
            level,
            (t >> (LEVEL_BITS * level as u32)) as usize & (SLOTS - 1),
        );
        idx
    }

    /// Splice entry `idx` onto the head of `slot` of `level`.
    #[inline]
    fn link(&mut self, idx: u32, level: usize, slot: usize) {
        let head = &mut self.heads[level * SLOTS + slot];
        let old = std::mem::replace(head, idx);
        self.entries[idx as usize].next = old;
        self.entries[idx as usize].prev = NIL;
        if old != NIL {
            self.entries[old as usize].prev = idx;
        }
        self.occupied[level][slot / 64] |= 1 << (slot % 64);
    }

    /// Retire entry `idx` to the freelist.
    #[inline]
    fn free_entry(&mut self, idx: u32) {
        self.entries[idx as usize].prev = UNLINKED;
        self.free.push(idx);
    }

    /// Detach a parked key in `O(1)`. `idx` is the handle [`push`]
    /// returned and `slot` the payload-slab slot stamped into the key at
    /// push time; the pair proves the handle still refers to *that*
    /// scheduling (the slab slot is owned by exactly one pending event, so
    /// a recycled entry can never carry the same `key.slot`). Returns
    /// `false` — leaving tombstone semantics to the caller — when the key
    /// has already joined the run, where a detach would cost `O(n)`.
    ///
    /// The entry's current `(level, slot)` is recomputed from its deadline
    /// and the wheel clock — the same arithmetic [`place`] used. That is
    /// sound because a *linked* entry's placement never silently drifts:
    /// the clock only crosses a placement boundary by draining the very
    /// slot the entry sits in, which relinks (or retires) it. Both unlink
    /// splices are asserted against the derived position in debug builds.
    ///
    /// [`push`]: EventQueue::push
    /// [`place`]: EventQueue::place
    pub(crate) fn cancel(&mut self, idx: u32, slot: u32) -> bool {
        let Some(&e) = self.entries.get(idx as usize) else {
            return false;
        };
        if e.prev == UNLINKED || e.key.slot != slot {
            return false;
        }
        let t = tick(e.key.time.0);
        let c = tick(self.cur);
        debug_assert!(t > c, "linked entry at or before the current slot");
        let level = ((63 - (t ^ c).leading_zeros()) / LEVEL_BITS) as usize;
        let wslot = (t >> (LEVEL_BITS * level as u32)) as usize & (SLOTS - 1);
        if e.prev == NIL {
            debug_assert_eq!(self.heads[level * SLOTS + wslot], idx);
            self.heads[level * SLOTS + wslot] = e.next;
            if e.next == NIL {
                self.occupied[level][wslot / 64] &= !(1 << (wslot % 64));
            }
        } else {
            debug_assert_eq!(self.entries[e.prev as usize].next, idx);
            self.entries[e.prev as usize].next = e.next;
        }
        if e.next != NIL {
            self.entries[e.next as usize].prev = e.prev;
        }
        self.free_entry(idx);
        self.count -= 1;
        true
    }

    /// Re-place a cascading entry relative to the advanced clock, keeping
    /// its index when it lands in a lower wheel slot (so outstanding
    /// cancel handles survive the cascade) and retiring it when its key
    /// joins the run (unsorted: [`advance`](Self::advance) sorts after
    /// the whole slot has cascaded).
    fn relocate(&mut self, idx: u32) {
        let key = self.entries[idx as usize].key;
        let t = tick(key.time.0);
        let c = tick(self.cur);
        if t <= c {
            self.ready.push(key);
            self.free_entry(idx);
            return;
        }
        let level = ((63 - (t ^ c).leading_zeros()) / LEVEL_BITS) as usize;
        self.link(
            idx,
            level,
            (t >> (LEVEL_BITS * level as u32)) as usize & (SLOTS - 1),
        );
    }

    /// First occupied slot of `level` at index `from` or later.
    #[inline]
    fn next_occupied(&self, level: usize, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut mask = !0u64 << (from % 64);
        while word < SLOTS / 64 {
            let bits = self.occupied[level][word] & mask;
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            mask = !0;
        }
        None
    }

    /// Move the wheel forward until `ready` holds the earliest pending
    /// events (no-op if the queue is empty). Levels are strictly ordered —
    /// every level-`k` event precedes every level-`k+1` event — so the
    /// first occupied slot found scanning levels bottom-up is the next
    /// slice of time with anything in it.
    fn advance(&mut self) {
        'refill: while self.ready.is_empty() {
            for level in 0..LEVELS {
                let shift = SLOT_SHIFT + LEVEL_BITS * level as u32;
                let cur_slot = (self.cur >> shift) as usize & (SLOTS - 1);
                let Some(s) = self.next_occupied(level, cur_slot + 1) else {
                    continue;
                };
                // Jump the clock to that slot's start...
                self.cur = ((self.cur >> shift & !((SLOTS as u64) - 1)) | s as u64) << shift;
                self.occupied[level][s / 64] &= !(1 << (s % 64));
                let mut idx = std::mem::replace(&mut self.heads[level * SLOTS + s], NIL);
                if level == 0 {
                    // ...and serve its events.
                    while idx != NIL {
                        let Entry { key, next, .. } = self.entries[idx as usize];
                        self.ready.push(key);
                        self.free_entry(idx);
                        idx = next;
                    }
                } else {
                    // ...and cascade its events down (all land below
                    // `level` now that the clock shares their upper
                    // ticks): each entry is relinked or retired in O(1),
                    // reusing its index so cancel handles stay valid.
                    while idx != NIL {
                        let next = self.entries[idx as usize].next;
                        self.relocate(idx);
                        idx = next;
                    }
                }
                // `ready` was empty, so what the drain appended is the
                // whole run: order it once. Keys are unique by `seq`, so
                // an unstable sort is exact.
                if self.ready.len() > 1 {
                    self.ready.sort_unstable_by(|a, b| b.cmp(a));
                }
                continue 'refill;
            }
            // Every level is empty: nothing is pending.
            return;
        }
    }

    /// The earliest pending event, without removing it.
    pub(crate) fn peek(&mut self) -> Option<EventKey> {
        if self.ready.is_empty() {
            self.advance();
        }
        self.ready.last().copied()
    }

    /// Remove and return the earliest pending event.
    pub(crate) fn pop(&mut self) -> Option<EventKey> {
        if self.ready.is_empty() {
            self.advance();
        }
        let key = self.ready.pop()?;
        #[cfg(debug_assertions)]
        {
            debug_assert!(key.time.0 >= self.last_pop, "pop went backwards");
            self.last_pop = key.time.0;
        }
        self.count -= 1;
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn key(time: u64, seq: u64) -> EventKey {
        EventKey {
            time: Time(time),
            seq,
            slot: seq as u32,
        }
    }

    /// Reference model: the binary heap the wheel replaced, plus the set
    /// of seqs detached by a successful [`EventQueue::cancel`] (the heap
    /// can only tombstone, so its pop skips them).
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<Reverse<EventKey>>,
        detached: std::collections::HashSet<u64>,
    }

    impl Model {
        fn pop(&mut self) -> Option<EventKey> {
            while let Some(Reverse(k)) = self.heap.pop() {
                if !self.detached.contains(&k.seq) {
                    return Some(k);
                }
            }
            None
        }

        fn peek(&mut self) -> Option<EventKey> {
            while let Some(&Reverse(k)) = self.heap.peek() {
                if !self.detached.contains(&k.seq) {
                    return Some(k);
                }
                self.heap.pop();
            }
            None
        }
    }

    #[test]
    fn cancel_detaches_parked_keys_and_refuses_stale_handles() {
        let mut q = EventQueue::new();
        let far = key(1 << 20, 1);
        let idx = q.push(far);
        assert_ne!(idx, NIL, "far deadline must park on the wheel");
        // Wrong slot: refused, nothing detached.
        assert!(!q.cancel(idx, far.slot + 1));
        // Right handle: detached, gone for good.
        assert!(q.cancel(idx, far.slot));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // Second cancel through the now-freed handle: refused.
        assert!(!q.cancel(idx, far.slot));

        // A key that lands in the run is not detachable.
        let near = key(0, 2);
        assert_eq!(q.push(near), NIL);
        assert_eq!(q.pop(), Some(near));

        // A popped key's handle is stale even if the entry was reused.
        let a = key(1 << 20, 3);
        let ia = q.push(a);
        assert!(q.cancel(ia, a.slot));
        let b = key(1 << 21, 4);
        let ib = q.push(b);
        assert_eq!(ia, ib, "freelist should reuse the entry");
        assert!(!q.cancel(ia, a.slot), "stale handle must not detach b");
        assert_eq!(q.pop(), Some(b));
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(key(500, 1));
        q.push(key(100, 2));
        q.push(key(100, 3));
        q.push(key(0, 4));
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some(key(0, 4)));
        assert_eq!(q.pop(), Some(key(100, 2)));
        assert_eq!(q.pop(), Some(key(100, 3)));
        assert_eq!(q.peek(), Some(key(500, 1)));
        assert_eq!(q.pop(), Some(key(500, 1)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_deadlines_park_on_the_wheel() {
        let mut q = EventQueue::new();
        // The last representable picoseconds: tick bit 53, wheel level 6.
        let last = key(u64::MAX, 1);
        let near_last = key(u64::MAX - 7, 2);
        let doomed = key(u64::MAX - 3, 3);
        assert_ne!(q.push(last), NIL, "must park, not fall off a horizon");
        assert_ne!(q.push(near_last), NIL);
        let idx = q.push(doomed);
        assert_ne!(idx, NIL);
        q.push(key(3, 4));
        assert!(
            q.cancel(idx, doomed.slot),
            "parked far key detaches in O(1)"
        );
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(key(3, 4)));
        assert_eq!(q.pop(), Some(near_last));
        // With the clock now in the far future, a push just ahead of it
        // still interleaves correctly with the remaining far entry.
        q.push(key(u64::MAX - 2, 5));
        assert_eq!(q.pop(), Some(key(u64::MAX - 2, 5)));
        assert_eq!(q.pop(), Some(last));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_matches_heap_on_fixed_seeds() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // ISSUE satellite: ≥ 3 seeds of arbitrary interleavings.
        for seed in [1u64, 2, 3, 0xDEAD_BEEF] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut model = Model::default();
            let mut live: Vec<(u32, EventKey)> = Vec::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            for _ in 0..20_000 {
                let r = rng.gen_range(0..100u32);
                if model.heap.is_empty() || r < 55 {
                    // Mix of near (same-slot), mid (cross-level), and far
                    // (top-level) deadlines.
                    let dt = match rng.gen_range(0..10u32) {
                        0 => 0,
                        1..=4 => rng.gen_range(0..1_000),
                        5..=7 => rng.gen_range(0..2_000_000),
                        8 => rng.gen_range(0..40_000_000_000),
                        _ => rng.gen_range(0..(1u64 << 62)),
                    };
                    let k = key(now.saturating_add(dt), seq);
                    seq += 1;
                    let idx = q.push(k);
                    live.push((idx, k));
                    model.heap.push(Reverse(k));
                } else if r < 85 {
                    let expect = model.pop();
                    let got = q.pop();
                    assert_eq!(got, expect, "seed {seed}");
                    if let Some(k) = got {
                        now = k.time.0;
                        live.retain(|&(_, lk)| lk.seq != k.seq);
                    }
                } else if !live.is_empty() {
                    // Cancel a random scheduled key; on detach the model
                    // tombstones it, on refusal (ready resident)
                    // both sides keep it and pop it normally.
                    let at = rng.gen_range(0..live.len());
                    let (idx, k) = live.swap_remove(at);
                    if q.cancel(idx, k.slot) {
                        model.detached.insert(k.seq);
                    }
                }
            }
            while let Some(expect) = model.pop() {
                assert_eq!(q.pop(), Some(expect), "drain, seed {seed}");
            }
            assert_eq!(q.pop(), None);
            assert!(q.is_empty(), "detached keys must not linger, seed {seed}");
        }
    }

    /// The batch the scenario corpus actually produces (EXPERIMENTS.md
    /// "Sorted runs"): 10 000 timers at one picosecond `t`, parked three
    /// levels up, interleaved with keys one tick either side of `t` and a
    /// few later in `t`'s own slot. Returns the queue, its model, `t` and
    /// the next unused seq.
    fn same_instant_batch() -> (EventQueue, Model, u64, u64) {
        let mut q = EventQueue::new();
        let mut model = Model::default();
        // Tick bytes 01.02.03.04: the deadline parks on level 3 and
        // cascades through levels 2 and 1 before level 0 serves it.
        let t = (0x0102_0304 << SLOT_SHIFT) + 7;
        let one_tick = 1 << SLOT_SHIFT;
        let mut seq = 0;
        for i in 0..10_000 {
            let mut times = vec![t];
            if i % 7 == 0 {
                times.extend([t - one_tick, t + one_tick]);
            }
            if i % 11 == 0 {
                times.push(t + 500);
            }
            for time in times {
                let k = key(time, seq);
                seq += 1;
                assert_ne!(q.push(k), NIL, "three levels up must park");
                model.heap.push(Reverse(k));
            }
        }
        (q, model, t, seq)
    }

    #[test]
    fn ten_thousand_same_instant_keys_pop_in_seq_order() {
        let (mut q, mut model, _, seq) = same_instant_batch();
        assert_eq!(q.len() as u64, seq);
        while let Some(expect) = model.pop() {
            assert_eq!(q.pop(), Some(expect));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn pushes_into_a_run_being_served_land_where_the_heap_puts_them() {
        let (mut q, mut model, t, mut seq) = same_instant_batch();
        // Serve the slot before `t`'s, then half of the keys at `t`.
        let earlier = model.heap.iter().filter(|k| k.0.time.0 < t).count();
        for _ in 0..earlier + 5_000 {
            assert_eq!(q.pop(), model.pop());
        }
        assert_eq!(q.peek().map(|k| k.time.0), Some(t));
        // The instant being served (behind the 5 000 keys still at `t`), an
        // instant before the run's `t + 500` keys, and one behind them all.
        for time in [t, t + 200, t + 500] {
            let k = key(time, seq);
            seq += 1;
            assert_eq!(q.push(k), NIL, "the current slot is the run");
            model.heap.push(Reverse(k));
        }
        while let Some(expect) = model.pop() {
            assert_eq!(q.pop(), Some(expect));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    /// One step of the property-test interleaving: push `n` keys at one
    /// deadline `dt` past the last popped time, pop (and check) `n`
    /// events, or cancel one of the currently scheduled keys.
    #[derive(Debug, Clone)]
    enum Op {
        PushBurst(u16, u64),
        Pop(u8),
        Cancel(u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        use rand::Rng;
        prop_oneof![
            // Deadline deltas spanning every placement class: current
            // slot and each of the seven wheel levels, up to 2^63 ps.
            // One push in eight is a burst of up to 300 keys at a shared
            // deadline, so runs grow past 64 keys as they do under real
            // timer traffic; the rest push a single key.
            proptest::strategy::fn_strategy(|rng: &mut proptest::strategy::TestRng| {
                let bits = rng.gen_range(0..64u32);
                let dt = rng.gen_range(0..=(1u64 << bits));
                let n = match rng.gen_range(0..8u32) {
                    0 => rng.gen_range(1..=300),
                    _ => 1,
                };
                Op::PushBurst(n, dt)
            }),
            (1u8..8).prop_map(Op::Pop),
            any::<u8>().prop_map(Op::Cancel),
        ]
    }

    proptest! {
        /// The wheel is observationally identical to the reference binary
        /// heap under arbitrary schedule/advance interleavings: same
        /// events, same order, same timestamps.
        #[test]
        fn wheel_matches_heap_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            let mut q = EventQueue::new();
            let mut model = Model::default();
            let mut live: Vec<(u32, EventKey)> = Vec::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            for op in ops {
                match op {
                    Op::PushBurst(n, dt) => {
                        for _ in 0..n {
                            let k = key(now.saturating_add(dt), seq);
                            seq += 1;
                            let idx = q.push(k);
                            live.push((idx, k));
                            model.heap.push(Reverse(k));
                        }
                    }
                    Op::Pop(n) => {
                        for _ in 0..n {
                            let expect = model.pop();
                            prop_assert_eq!(q.peek(), expect);
                            prop_assert_eq!(q.pop(), expect);
                            if let Some(k) = expect {
                                now = k.time.0;
                                live.retain(|&(_, lk)| lk.seq != k.seq);
                            }
                        }
                    }
                    Op::Cancel(pick) => {
                        if live.is_empty() {
                            continue;
                        }
                        let at = pick as usize % live.len();
                        let (idx, k) = live.swap_remove(at);
                        if q.cancel(idx, k.slot) {
                            model.detached.insert(k.seq);
                        }
                        prop_assert_eq!(q.peek(), model.peek());
                    }
                }
            }
            while let Some(expect) = model.pop() {
                prop_assert_eq!(q.pop(), Some(expect));
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert!(q.is_empty());
        }
    }
}
