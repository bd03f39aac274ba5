//! Host addressing and static routes.
//!
//! The simulator does not model IP addresses; by workspace convention the
//! transport-port fields are **host addresses** (`src_port` = sending host,
//! `dst_port` = destination host). Switches route on them.

use std::collections::HashMap;

use mtp_sim::packet::{Headers, Packet};
use mtp_sim::PortId;

/// Extract the destination host address of a packet, if it has one.
pub fn dst_addr(pkt: &Packet) -> Option<u16> {
    match &pkt.headers {
        Headers::Tcp(h) => Some(h.dst_port),
        Headers::Mtp(h) => Some(h.dst_port),
        // Corrupted bytes carry no *trusted* address; switches drop them
        // before routing, but the accessor stays total.
        Headers::Raw | Headers::Mangled { .. } => None,
    }
}

/// Extract the source host address of a packet, if it has one.
pub fn src_addr(pkt: &Packet) -> Option<u16> {
    match &pkt.headers {
        Headers::Tcp(h) => Some(h.src_port),
        Headers::Mtp(h) => Some(h.src_port),
        Headers::Raw | Headers::Mangled { .. } => None,
    }
}

/// Why a packet could not be routed. Forwarding elements surface this
/// instead of silently dropping, so switches can count each cause and the
/// sim trace records a `NoRoute` event per discarded packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The packet carries no destination address (raw frame).
    NoAddress,
    /// No table entry (and no fan group) covers this destination.
    NoRoute(u16),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::NoAddress => write!(f, "packet has no destination address"),
            RouteError::NoRoute(addr) => write!(f, "no route to host {addr}"),
        }
    }
}

/// A destination-address routing table.
#[derive(Debug, Clone, Default)]
pub struct StaticRoutes {
    table: HashMap<u16, PortId>,
}

impl StaticRoutes {
    /// An empty table.
    pub fn new() -> StaticRoutes {
        StaticRoutes::default()
    }

    /// Route `addr` out of `port`.
    pub fn add(mut self, addr: u16, port: PortId) -> StaticRoutes {
        self.table.insert(addr, port);
        self
    }

    /// Look up the egress port for a destination address.
    pub fn lookup(&self, addr: u16) -> Option<PortId> {
        self.table.get(&addr).copied()
    }

    /// Look up the egress port for a packet's destination.
    pub fn route(&self, pkt: &Packet) -> Option<PortId> {
        dst_addr(pkt).and_then(|a| self.lookup(a))
    }

    /// Look up the egress port for a packet's destination, distinguishing
    /// *why* routing failed: an address-less packet vs. a destination the
    /// table does not cover.
    pub fn try_route(&self, pkt: &Packet) -> Result<PortId, RouteError> {
        let addr = dst_addr(pkt).ok_or(RouteError::NoAddress)?;
        self.lookup(addr).ok_or(RouteError::NoRoute(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_wire::{MtpHeader, TcpHeader};

    #[test]
    fn addresses_from_both_header_types() {
        let t = Packet::new(
            Headers::Tcp(TcpHeader {
                src_port: 5,
                dst_port: 9,
                ..TcpHeader::default()
            }),
            100,
        );
        assert_eq!(src_addr(&t), Some(5));
        assert_eq!(dst_addr(&t), Some(9));
        let m = Packet::new(
            Headers::Mtp(Box::new(MtpHeader {
                src_port: 7,
                dst_port: 3,
                ..MtpHeader::default()
            })),
            100,
        );
        assert_eq!(src_addr(&m), Some(7));
        assert_eq!(dst_addr(&m), Some(3));
        assert_eq!(dst_addr(&Packet::new(Headers::Raw, 1)), None);
    }

    #[test]
    fn routes_lookup() {
        let r = StaticRoutes::new().add(9, PortId(2)).add(3, PortId(0));
        let t = Packet::new(
            Headers::Tcp(TcpHeader {
                dst_port: 9,
                ..TcpHeader::default()
            }),
            100,
        );
        assert_eq!(r.route(&t), Some(PortId(2)));
        assert_eq!(r.lookup(42), None);
    }

    #[test]
    fn try_route_distinguishes_failure_causes() {
        let r = StaticRoutes::new().add(9, PortId(2));
        let routable = Packet::new(
            Headers::Tcp(TcpHeader {
                dst_port: 9,
                ..TcpHeader::default()
            }),
            100,
        );
        assert_eq!(r.try_route(&routable), Ok(PortId(2)));
        let unknown = Packet::new(
            Headers::Tcp(TcpHeader {
                dst_port: 42,
                ..TcpHeader::default()
            }),
            100,
        );
        assert_eq!(r.try_route(&unknown), Err(RouteError::NoRoute(42)));
        let raw = Packet::new(Headers::Raw, 100);
        assert_eq!(r.try_route(&raw), Err(RouteError::NoAddress));
    }
}
