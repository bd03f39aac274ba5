//! The sender's pathlet table: congestion state per `(pathlet, TC)` pair.
//!
//! This is the heart of pathlet congestion control (paper §3.1.3). Each
//! `(PathletId, TrafficClass)` key owns a [`PathletCc`] window, an
//! in-flight byte count, and an optional exclusion deadline. Windows evolve
//! from echoed feedback; in-flight accounting is charged at transmission
//! and credited on SACK/NACK/timeout; exclusions are advertised back to the
//! network in the path-exclude header list.
//!
//! ## Storage
//!
//! Entries live in a dense `Vec` in interning order; a key is mapped to its
//! [`PathIdx`] once (on first contact, or once per ACK for feedback
//! entries) through a small open-addressed probe table, and every
//! subsequent charge/credit/window access is a flat array index. The probe
//! table packs `(PathletId, TrafficClass)` into 24 bits — it exists only to
//! resolve keys arriving off the wire; protocol hot paths carry `PathIdx`
//! directly (e.g. each in-flight packet records the index it was charged
//! to). A table has tens of entries in realistic workloads, so the dense
//! layout also keeps the whole congestion state in one or two cache lines
//! per pathlet.

use mtp_sim::time::Time;
use mtp_wire::{PathExclude, PathletId, TrafficClass};

use crate::pathlet_cc::{PathIdx, PathletCc};

/// Congestion state for one `(pathlet, TC)` pair.
pub struct PathletEntry {
    /// The controller evolving this pathlet's window, stored inline.
    pub cc: PathletCc,
    /// Bytes currently charged against this pathlet.
    pub inflight: u64,
    /// If set, the sender advertises this pathlet as excluded until then.
    pub excluded_until: Option<Time>,
    /// Last time feedback referenced this pathlet.
    pub last_seen: Time,
    /// Consecutive loss attributions with no intervening successful ACK —
    /// the loss half of dead-pathlet detection.
    pub consec_losses: u32,
    /// If set, the pathlet is quarantined (presumed dead) until then.
    pub quarantined_until: Option<Time>,
    /// Re-probe backoff level: quarantine duration is
    /// `PROBE_BACKOFF << level`, capped by `MAX_BACKOFF`.
    pub backoff_level: u32,
}

impl PathletEntry {
    /// Bytes of window headroom remaining.
    pub fn room(&self) -> u64 {
        self.cc.window().saturating_sub(self.inflight)
    }

    /// True while the pathlet is quarantined at `now`.
    pub fn is_quarantined(&self, now: Time) -> bool {
        matches!(self.quarantined_until, Some(until) if until > now)
    }
}

/// Pack a key into the 24 bits the probe table hashes.
#[inline]
fn pack(path: PathletId, tc: TrafficClass) -> u32 {
    ((path.0 as u32) << 8) | tc.0 as u32
}

/// All pathlet state kept by one sender.
pub struct PathletTable {
    keys: Vec<(PathletId, TrafficClass)>,
    entries: Vec<PathletEntry>,
    /// Open-addressed key→index probe table; each slot holds `idx + 1`,
    /// 0 = empty. Length is a power of two.
    map: Vec<u32>,
    /// The controller every new pathlet starts as.
    cc: PathletCc,
    /// Entries whose `excluded_until` is set (possibly expired); lets the
    /// per-packet exclusion scan short-circuit in the common case of no
    /// exclusions at all.
    excluded: usize,
    /// Entries whose `quarantined_until` is set (possibly expired); same
    /// fast-path trick for the per-event quarantine sweep.
    quarantined: usize,
}

impl std::fmt::Debug for PathletTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathletTable")
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl PathletTable {
    /// An empty table; each new pathlet starts as a copy of `cc`.
    pub fn new(cc: PathletCc) -> PathletTable {
        PathletTable {
            keys: Vec::new(),
            entries: Vec::new(),
            map: Vec::new(),
            cc,
            excluded: 0,
            quarantined: 0,
        }
    }

    /// Number of pathlets tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no pathlet has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    fn probe_start(&self, key: u32) -> usize {
        // Fibonacci hashing spreads the 24-bit packed keys well enough for
        // linear probing at ≤ 7/8 load on these tiny tables.
        (key.wrapping_mul(0x9E37_79B1) as usize) & (self.map.len() - 1)
    }

    /// Find the dense index of a key, if interned.
    #[inline]
    pub fn lookup(&self, path: PathletId, tc: TrafficClass) -> Option<PathIdx> {
        if self.map.is_empty() {
            return None;
        }
        let key = pack(path, tc);
        let mask = self.map.len() - 1;
        let mut i = self.probe_start(key);
        loop {
            match self.map[i] {
                0 => return None,
                v => {
                    let idx = v - 1;
                    if pack(self.keys[idx as usize].0, self.keys[idx as usize].1) == key {
                        return Some(PathIdx(idx));
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    fn grow_map(&mut self) {
        let new_len = (self.map.len().max(8)) * 2;
        self.map.clear();
        self.map.resize(new_len, 0);
        for idx in 0..self.keys.len() as u32 {
            let key = pack(self.keys[idx as usize].0, self.keys[idx as usize].1);
            let mask = new_len - 1;
            let mut i = self.probe_start(key);
            while self.map[i] != 0 {
                i = (i + 1) & mask;
            }
            self.map[i] = idx + 1;
        }
    }

    /// Intern a key: return its dense index, starting a fresh controller
    /// (and `last_seen = now`) on first contact.
    pub fn intern(&mut self, path: PathletId, tc: TrafficClass, now: Time) -> PathIdx {
        if let Some(idx) = self.lookup(path, tc) {
            return idx;
        }
        let idx = self.entries.len() as u32;
        self.keys.push((path, tc));
        self.entries.push(PathletEntry {
            cc: self.cc,
            inflight: 0,
            excluded_until: None,
            last_seen: now,
            consec_losses: 0,
            quarantined_until: None,
            backoff_level: 0,
        });
        // Keep load ≤ 3/4 so probe chains stay short.
        if (self.keys.len() + 1) * 4 > self.map.len() * 3 {
            self.grow_map();
        } else {
            let key = pack(path, tc);
            let mask = self.map.len() - 1;
            let mut i = self.probe_start(key);
            while self.map[i] != 0 {
                i = (i + 1) & mask;
            }
            self.map[i] = idx + 1;
        }
        PathIdx(idx)
    }

    /// The key interned at `idx`.
    #[inline]
    pub fn key_at(&self, idx: PathIdx) -> (PathletId, TrafficClass) {
        self.keys[idx.0 as usize]
    }

    /// The entry at a dense index.
    #[inline]
    pub fn at(&self, idx: PathIdx) -> &PathletEntry {
        &self.entries[idx.0 as usize]
    }

    /// The entry at a dense index, mutably.
    #[inline]
    pub fn at_mut(&mut self, idx: PathIdx) -> &mut PathletEntry {
        &mut self.entries[idx.0 as usize]
    }

    /// Read-only lookup.
    pub fn get(&self, path: PathletId, tc: TrafficClass) -> Option<&PathletEntry> {
        self.lookup(path, tc).map(|idx| self.at(idx))
    }

    /// Charge `bytes` against an already-interned pathlet.
    #[inline]
    pub fn charge_at(&mut self, idx: PathIdx, bytes: u64) {
        self.entries[idx.0 as usize].inflight += bytes;
    }

    /// Credit `bytes` back on an already-interned pathlet (on ACK, NACK,
    /// or timeout of a charged packet).
    #[inline]
    pub fn credit_at(&mut self, idx: PathIdx, bytes: u64) {
        let e = &mut self.entries[idx.0 as usize];
        e.inflight = e.inflight.saturating_sub(bytes);
    }

    /// Window headroom on an already-interned pathlet.
    #[inline]
    pub fn room_at(&self, idx: PathIdx) -> u64 {
        self.entries[idx.0 as usize].room()
    }

    /// Mark an already-interned pathlet excluded until `until`; data
    /// packets will carry the exclusion so the network steers around it.
    pub fn exclude_at(&mut self, idx: PathIdx, until: Time) {
        let e = &mut self.entries[idx.0 as usize];
        if e.excluded_until.is_none() {
            self.excluded += 1;
        }
        e.excluded_until = Some(until);
    }

    /// Quarantine an already-interned pathlet (presumed dead) until
    /// `until`, and advertise it excluded for the same span so the network
    /// steers other traffic around it too.
    pub fn quarantine_at(&mut self, idx: PathIdx, until: Time) {
        {
            let e = &mut self.entries[idx.0 as usize];
            if e.quarantined_until.is_none() {
                self.quarantined += 1;
            }
            e.quarantined_until = Some(until);
        }
        self.exclude_at(idx, until);
    }

    /// The best live alternative to `avoid` for the same traffic class:
    /// the non-quarantined entry with the most window headroom. `None`
    /// when no other live pathlet exists — callers must then keep using
    /// `avoid` rather than abandoning the only path.
    pub fn best_alternative(&self, avoid: PathIdx, now: Time) -> Option<PathIdx> {
        let (_, tc) = self.keys[avoid.0 as usize];
        let mut best: Option<(u64, u32)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if i as u32 == avoid.0 || self.keys[i].1 != tc || e.is_quarantined(now) {
                continue;
            }
            let room = e.room();
            if best.is_none_or(|(r, _)| room > r) {
                best = Some((room, i as u32));
            }
        }
        best.map(|(_, i)| PathIdx(i))
    }

    /// Feedback attributed acked bytes to this pathlet: it is demonstrably
    /// alive. Clears the loss streak, the re-probe backoff, and any
    /// standing quarantine (the advertised exclusion expires on its own).
    pub fn mark_alive(&mut self, idx: PathIdx) {
        let e = &mut self.entries[idx.0 as usize];
        e.consec_losses = 0;
        e.backoff_level = 0;
        if e.quarantined_until.take().is_some() {
            self.quarantined -= 1;
        }
    }

    /// Pathlets actually quarantined at `now` (unlike the internal
    /// counter, entries whose quarantine has expired but has not yet
    /// been released by a timer do not count). One counter check when
    /// nothing is quarantined.
    pub fn quarantined_now(&self, now: Time) -> usize {
        if self.quarantined == 0 {
            return 0;
        }
        self.entries
            .iter()
            .filter(|e| e.is_quarantined(now))
            .count()
    }

    /// The earliest pending quarantine release, if any pathlet is
    /// quarantined. This is the quarantine half of the sender's
    /// [`poll_at`](crate::MtpSender::poll_at) deadline: a driver that
    /// sleeps until this instant and then calls `on_timer` releases the
    /// quarantine exactly when it expires instead of at the next
    /// incidental ACK or RTO. One counter check when nothing is
    /// quarantined.
    pub fn next_quarantine_release(&self) -> Option<Time> {
        if self.quarantined == 0 {
            return None;
        }
        self.entries
            .iter()
            .filter_map(|e| e.quarantined_until)
            .min()
    }

    /// Clear quarantines that expired at `now`; each cleared entry opens a
    /// re-probe window. The loss streak resets (the probe starts clean)
    /// but the backoff level is retained — a pathlet that fails its probe
    /// goes back into quarantine for twice as long. Returns how many
    /// probes opened. One counter check when nothing is quarantined.
    pub fn release_expired_quarantines(&mut self, now: Time) -> u32 {
        if self.quarantined == 0 {
            return 0;
        }
        let mut released = 0;
        for e in &mut self.entries {
            if let Some(until) = e.quarantined_until {
                if until <= now {
                    e.quarantined_until = None;
                    e.consec_losses = 0;
                    self.quarantined -= 1;
                    released += 1;
                }
            }
        }
        released
    }

    /// Append the exclusions active at `now` to `out` and sort `out` by
    /// `(pathlet, TC)` for reproducible headers; expired entries are
    /// cleared as a side effect. `out` is typically a pooled header's
    /// `path_exclude` list, cleared by the pool on reuse. The common case —
    /// no exclusion ever set — is a single counter check.
    pub fn append_exclusions(&mut self, now: Time, out: &mut Vec<PathExclude>) {
        if self.excluded == 0 {
            return;
        }
        for (idx, e) in self.entries.iter_mut().enumerate() {
            match e.excluded_until {
                Some(until) if until > now => {
                    let (path, tc) = self.keys[idx];
                    out.push(PathExclude { path, tc });
                }
                Some(_) => {
                    e.excluded_until = None;
                    self.excluded -= 1;
                }
                None => {}
            }
        }
        out.sort_by_key(|x| (x.path.0, x.tc.0));
    }

    /// Iterate over `(key, entry)` pairs in interning order (for
    /// instrumentation).
    pub fn iter(&self) -> impl Iterator<Item = (&(PathletId, TrafficClass), &PathletEntry)> {
        self.keys.iter().zip(self.entries.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_sim::time::Duration;

    fn table() -> PathletTable {
        PathletTable::new(PathletCc::Fixed(10_000))
    }

    /// The exclusions active at `now`, as a fresh `Vec`.
    fn active(t: &mut PathletTable, now: Time) -> Vec<PathExclude> {
        let mut out = Vec::new();
        t.append_exclusions(now, &mut out);
        out
    }

    const P1: PathletId = PathletId(1);
    const P2: PathletId = PathletId(2);
    const TC: TrafficClass = TrafficClass::BEST_EFFORT;

    #[test]
    fn charge_and_credit_track_room() {
        let mut t = table();
        let a = t.intern(P1, TC, Time::ZERO);
        assert_eq!(t.room_at(a), 10_000);
        t.charge_at(a, 4_000);
        assert_eq!(t.room_at(a), 6_000);
        t.credit_at(a, 4_000);
        assert_eq!(t.room_at(a), 10_000);
        // Over-credit saturates instead of wrapping.
        t.credit_at(a, 99_999);
        assert_eq!(t.room_at(a), 10_000);
    }

    #[test]
    fn pathlets_are_independent() {
        let mut t = table();
        let a = t.intern(P1, TC, Time::ZERO);
        t.charge_at(a, 10_000);
        assert_eq!(t.room_at(a), 0);
        let b = t.intern(P2, TC, Time::ZERO);
        assert_eq!(t.room_at(b), 10_000, "other pathlet unaffected");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn same_pathlet_different_tc_is_separate() {
        let mut t = table();
        let a = t.intern(P1, TrafficClass(1), Time::ZERO);
        t.charge_at(a, 10_000);
        let b = t.intern(P1, TrafficClass(2), Time::ZERO);
        assert_eq!(t.room_at(b), 10_000);
    }

    #[test]
    fn exclusions_expire() {
        let mut t = table();
        // Interned out of key order, so the sort is what orders the list.
        let b = t.intern(P2, TC, Time::ZERO);
        let a = t.intern(P1, TC, Time::ZERO);
        let until = Time::ZERO + Duration::from_micros(100);
        t.exclude_at(a, until);
        t.exclude_at(b, until);
        let now = active(&mut t, Time::ZERO + Duration::from_micros(50));
        assert_eq!(now.len(), 2);
        assert_eq!(now[0].path, P1, "sorted order");
        let after = active(&mut t, Time::ZERO + Duration::from_micros(150));
        assert!(after.is_empty());
        // Cleared, not just filtered.
        assert!(t.get(P1, TC).unwrap().excluded_until.is_none());
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let mut t = table();
        let a = t.intern(P1, TC, Time::ZERO);
        let b = t.intern(P2, TC, Time::ZERO);
        let c = t.intern(P1, TrafficClass(3), Time::ZERO);
        assert_eq!(a, PathIdx(0));
        assert_eq!(b, PathIdx(1));
        assert_eq!(c, PathIdx(2));
        // Re-interning returns the same index.
        assert_eq!(t.intern(P1, TC, Time::ZERO), a);
        assert_eq!(t.lookup(P2, TC), Some(b));
        assert_eq!(t.key_at(c), (P1, TrafficClass(3)));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn probe_table_survives_growth() {
        let mut t = table();
        let mut idxs = Vec::new();
        for p in 0..200u16 {
            for tc in 0..3u8 {
                idxs.push((p, tc, t.intern(PathletId(p), TrafficClass(tc), Time::ZERO)));
            }
        }
        for (p, tc, idx) in idxs {
            assert_eq!(t.lookup(PathletId(p), TrafficClass(tc)), Some(idx));
        }
        assert_eq!(t.len(), 600);
    }

    #[test]
    fn quarantine_release_and_alternatives() {
        let mut t = table();
        let a = t.intern(P1, TC, Time::ZERO);
        let b = t.intern(P2, TC, Time::ZERO);
        let until = Time::ZERO + Duration::from_micros(100);
        t.quarantine_at(a, until);
        assert!(t.at(a).is_quarantined(Time::ZERO));
        // Quarantine implies an advertised exclusion over the same span.
        assert_eq!(active(&mut t, Time::ZERO).len(), 1);
        // Alternatives skip quarantined entries; a quarantined-only pool
        // yields None.
        assert_eq!(t.best_alternative(a, Time::ZERO), Some(b));
        assert_eq!(t.best_alternative(b, Time::ZERO), None);
        // Different TC is never an alternative.
        t.intern(P2, TrafficClass(3), Time::ZERO);
        assert_eq!(t.best_alternative(b, Time::ZERO), None);
        // Expiry opens a re-probe: streak resets, counter balances.
        t.at_mut(a).consec_losses = 5;
        let later = Time::ZERO + Duration::from_micros(150);
        assert_eq!(t.release_expired_quarantines(later), 1);
        assert!(!t.at(a).is_quarantined(later));
        assert_eq!(t.at(a).consec_losses, 0);
        assert_eq!(t.release_expired_quarantines(later), 0);
        assert_eq!(t.best_alternative(b, later), Some(a));
    }

    #[test]
    fn best_alternative_prefers_headroom() {
        let mut t = table();
        let a = t.intern(P1, TC, Time::ZERO);
        let b = t.intern(P2, TC, Time::ZERO);
        let c = t.intern(PathletId(3), TC, Time::ZERO);
        t.charge_at(b, 8_000);
        t.charge_at(c, 2_000);
        // From a's perspective, c (8 kB room) beats b (2 kB room).
        assert_eq!(t.best_alternative(a, Time::ZERO), Some(c));
    }

    #[test]
    fn exclusion_fast_path_counter_balances() {
        let mut t = table();
        // No exclusions: append is a no-op even with entries present.
        let a = t.intern(P1, TC, Time::ZERO);
        let mut out = Vec::new();
        t.append_exclusions(Time::ZERO, &mut out);
        assert!(out.is_empty());
        assert_eq!(t.excluded, 0);
        // Set, re-set (no double count), expire, and observe the counter
        // return to the fast path.
        let until = Time::ZERO + Duration::from_micros(10);
        t.exclude_at(a, until);
        t.exclude_at(a, until);
        assert_eq!(t.excluded, 1);
        t.append_exclusions(Time::ZERO + Duration::from_micros(20), &mut out);
        assert!(out.is_empty());
        assert_eq!(t.excluded, 0, "expired entry cleared and uncounted");
    }
}
