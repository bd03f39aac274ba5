//! Per-entity fair-share enforcement on a single shared queue.
//!
//! Paper §5.3 / Fig. 7: per-flow fairness lets a tenant with 8× the flows
//! take 8× the bandwidth. Providing a queue per tenant fixes that but
//! "providing separate queues for entities is expensive". Because every
//! MTP packet identifies its **entity**, a switch can instead enforce the
//! policy at ingress with O(#entities) counters and one shared queue:
//! packets of entities consuming more than their fair share are CE-marked,
//! and the entities' own congestion controllers throttle them.
//!
//! The enforcer runs a fixed epoch. In each epoch it tracks bytes per
//! entity; an entity whose running total exceeds its fair share of the
//! epoch's capacity gets marked. Entities are aged out after an idle
//! period so the fair share adapts to the active set.

use std::collections::HashMap;

use mtp_sim::packet::{Headers, Packet};
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_wire::{EcnCodepoint, EntityId};

use crate::switch::IngressPolicy;

/// Fraction of the fair share an entity may use before marking starts.
/// Kept slightly *below* 1.0 so the aggregate admitted rate stays under
/// link capacity and the shared queue never builds — enforcer marks are
/// then the only congestion signal, and an under-share entity is never
/// collaterally marked by an over-share one.
const HEADROOM: f64 = 0.95;

/// Fair-share marking enforcer (see module docs).
pub struct FairShareEnforcer {
    /// Shared-link capacity being divided.
    capacity: Bandwidth,
    /// Accounting epoch.
    epoch: Duration,
    epoch_end: Time,
    bytes: HashMap<EntityId, u64>,
    /// Entities seen in the previous epoch (defines the active set).
    active_prev: usize,
    /// Counters.
    pub marks: u64,
}

impl FairShareEnforcer {
    /// An enforcer dividing `capacity` fairly among active entities,
    /// accounting over `epoch`.
    pub fn new(capacity: Bandwidth, epoch: Duration) -> FairShareEnforcer {
        FairShareEnforcer {
            capacity,
            epoch,
            epoch_end: Time::ZERO,
            bytes: HashMap::new(),
            active_prev: 1,
            marks: 0,
        }
    }

    fn budget_per_entity(&self) -> f64 {
        let epoch_bytes = self.capacity.bytes_in(self.epoch) as f64;
        let active = self.bytes.len().max(self.active_prev).max(1);
        epoch_bytes * HEADROOM / active as f64
    }

    fn roll_epoch(&mut self, now: Time) {
        while now >= self.epoch_end {
            self.active_prev = self.bytes.values().filter(|&&b| b > 0).count().max(1);
            // Drain each entity's virtual queue by one epoch's fair share
            // rather than clearing it: an entity persistently above its
            // share stays marked until it is genuinely below fair rate
            // (a per-entity virtual-queue AQM).
            let budget = self.budget_per_entity() as u64;
            self.bytes.retain(|_, b| {
                *b = b.saturating_sub(budget);
                *b > 0
            });
            self.epoch_end = Time(self.epoch_end.0 + self.epoch.0);
        }
    }
}

impl IngressPolicy for FairShareEnforcer {
    fn admit(&mut self, now: Time, pkt: &mut Packet) -> bool {
        // Only verified native MTP data is accounted. The hosting switch
        // sanitizes before consulting the policy, so corrupted (Mangled)
        // packets never reach here — but the match is total regardless:
        // anything without a trusted MTP header passes unaccounted rather
        // than risking attribution to the wrong entity.
        let Headers::Mtp(hdr) = &pkt.headers else {
            return true;
        };
        if hdr.pkt_type != mtp_wire::PktType::Data {
            return true;
        }
        self.roll_epoch(now);
        let entity = hdr.entity;
        let e = self.bytes.entry(entity).or_insert(0);
        *e += pkt.wire_len as u64;
        let over = *e as f64 > self.budget_per_entity();
        if over && pkt.ecn.is_ect() && !pkt.ecn.is_ce() {
            pkt.ecn = EcnCodepoint::Ce;
            self.marks += 1;
        }
        true
    }

    fn reset(&mut self) {
        // Device crash: per-entity accounting is volatile. The epoch clock
        // restarts from the next packet's timestamp via roll_epoch.
        self.bytes.clear();
        self.active_prev = 1;
        self.epoch_end = Time::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_wire::{MtpHeader, PktType};

    fn pkt(entity: u16, len: u32) -> Packet {
        let hdr = MtpHeader {
            pkt_type: PktType::Data,
            entity: EntityId(entity),
            ..MtpHeader::default()
        };
        Packet::new(Headers::Mtp(mtp_sim::pool::boxed(hdr)), len)
    }

    #[test]
    fn heavy_entity_gets_marked_light_does_not() {
        // 100 Gbps over 10 us = 125 kB per epoch; two entities => ~59 kB
        // budget each (x0.95 headroom).
        let mut f = FairShareEnforcer::new(Bandwidth::from_gbps(100), Duration::from_micros(10));
        let now = Time::ZERO;
        let mut heavy_marked = 0;
        let mut light_marked = 0;
        // Entity 2 sends 8x the bytes of entity 1 in one epoch.
        for i in 0..90 {
            let mut p = pkt(2, 1500);
            assert!(f.admit(now, &mut p));
            if p.ecn.is_ce() {
                heavy_marked += 1;
            }
            if i % 8 == 0 {
                let mut p = pkt(1, 1500);
                assert!(f.admit(now, &mut p));
                if p.ecn.is_ce() {
                    light_marked += 1;
                }
            }
        }
        assert!(
            heavy_marked > 20,
            "heavy entity marked (got {heavy_marked})"
        );
        assert_eq!(
            light_marked, 0,
            "light entity under fair share never marked"
        );
    }

    #[test]
    fn budgets_reset_each_epoch() {
        let mut f = FairShareEnforcer::new(Bandwidth::from_gbps(1), Duration::from_micros(10));
        // 1 Gbps * 10us * 0.95 = 1187 B budget per epoch.
        let t0 = Time::ZERO;
        let mut p1 = pkt(1, 1000);
        f.admit(t0, &mut p1);
        assert!(!p1.ecn.is_ce(), "first packet under budget");
        let mut p2 = pkt(1, 1000);
        f.admit(t0, &mut p2);
        assert!(p2.ecn.is_ce(), "second packet exceeds the epoch budget");
        // Next epoch: fresh budget.
        let t1 = Time::ZERO + Duration::from_micros(20);
        let mut p3 = pkt(1, 1000);
        f.admit(t1, &mut p3);
        assert!(!p3.ecn.is_ce());
    }

    #[test]
    fn non_mtp_traffic_passes_untouched() {
        let mut f = FairShareEnforcer::new(Bandwidth::from_gbps(1), Duration::from_micros(10));
        let mut p = Packet::new(Headers::Raw, 9000);
        assert!(f.admit(Time::ZERO, &mut p));
        assert!(!p.ecn.is_ce());
    }

    #[test]
    fn mangled_traffic_is_neither_accounted_nor_marked() {
        // Defense in depth: the switch drops corrupted packets before the
        // policy runs, but a Mangled header reaching admit() must neither
        // panic nor be charged to any entity.
        let mut f = FairShareEnforcer::new(Bandwidth::from_gbps(1), Duration::from_micros(10));
        let mut p = Packet::new(
            Headers::Mangled {
                proto: mtp_sim::packet::WireProto::Mtp,
                bytes: vec![0xFF; 48],
            },
            1500,
        );
        for _ in 0..100 {
            assert!(f.admit(Time::ZERO, &mut p));
            assert!(!p.ecn.is_ce());
        }
        assert_eq!(f.marks, 0);
    }

    #[test]
    fn acks_are_never_marked() {
        let mut f = FairShareEnforcer::new(Bandwidth::from_gbps(1), Duration::from_micros(10));
        let hdr = MtpHeader {
            pkt_type: PktType::Ack,
            ..MtpHeader::default()
        };
        for _ in 0..100 {
            let mut p = Packet::new(Headers::Mtp(mtp_sim::pool::boxed(hdr.clone())), 60);
            assert!(f.admit(Time::ZERO, &mut p));
            assert!(!p.ecn.is_ce());
        }
    }
}
