//! Table 1, the paper's transport capability matrix, regenerated from the
//! records exported next to each transport implementation
//! (`mtp_tcp::capabilities`, `mtp_core::capabilities`) and compared byte
//! for byte with `results/table1.json`. No simulator runs; a change to
//! any cell, justification or row order fails here.

use mtp_wire::capabilities::TransportCapabilities;
use serde::Serialize;

/// The committed record's shape, fields in file order.
#[derive(Serialize)]
struct Record {
    id: &'static str,
    paper_claim: &'static str,
    data: Vec<TransportCapabilities>,
}

/// The rows in the paper's order: the TCP variants and DCTCP, then UDP,
/// QUIC, MPTCP, Swift, the RDMA modes and MTP.
fn rows() -> Vec<TransportCapabilities> {
    let mut rows = mtp_tcp::capabilities::all();
    let core = mtp_core::capabilities::all();
    for name in [
        "UDP", "QUIC", "MPTCP", "Swift", "RDMA RC", "RDMA UC", "RDMA UD", "MTP",
    ] {
        let row = core.iter().find(|r| r.name == name);
        rows.push(row.unwrap_or_else(|| panic!("no `{name}` row")).clone());
    }
    rows
}

#[test]
fn table1_matches_the_committed_record() {
    let record = Record {
        id: "table1",
        paper_claim: "no TCP/UDP/QUIC/MPTCP/Swift/RDMA configuration meets all five \
                      in-network-computing requirements; MTP meets all five",
        data: rows(),
    };
    let json = serde_json::to_string_pretty(&record).expect("serializable record");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/table1.json");
    let committed = std::fs::read_to_string(path).expect("read results/table1.json");
    assert!(
        json == committed,
        "Table 1 diverged from results/table1.json:\n{json}"
    );
}
