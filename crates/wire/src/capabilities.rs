//! Transport capability records (the vocabulary of paper Table 1).
//!
//! Table 1 of the paper scores transport configurations against the five
//! in-network-computing requirements of §2.2. Rather than hard-coding a
//! table of checkmarks in the benchmark binary, each transport crate in
//! this workspace exports a [`TransportCapabilities`] record *next to its
//! implementation*, with a justification string per requirement tied to the
//! mechanism that provides (or denies) it. `mtp-bench`'s `table1` test
//! collects the records into the paper's table and compares it with
//! `results/table1.json`.

use serde::{Deserialize, Serialize};

/// Whether a transport meets one requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Support {
    /// The requirement is met (✓).
    Yes,
    /// The requirement is not met (✗).
    No,
    /// Not applicable / unclear in the paper's table (—).
    Unclear,
}

impl core::fmt::Display for Support {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Support::Yes => "Y",
            Support::No => "x",
            Support::Unclear => "-",
        };
        f.pad(s)
    }
}

/// One requirement assessment: the verdict plus the mechanism behind it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Assessment {
    /// The verdict.
    pub support: Support,
    /// Why — which mechanism provides or forbids the capability.
    pub why: &'static str,
}

impl Assessment {
    /// A supported capability with a reason.
    pub const fn yes(why: &'static str) -> Assessment {
        Assessment {
            support: Support::Yes,
            why,
        }
    }

    /// An unsupported capability with a reason.
    pub const fn no(why: &'static str) -> Assessment {
        Assessment {
            support: Support::No,
            why,
        }
    }

    /// An unclear/not-applicable capability.
    pub const fn unclear(why: &'static str) -> Assessment {
        Assessment {
            support: Support::Unclear,
            why,
        }
    }
}

/// A transport's score against the five §2.2 requirements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransportCapabilities {
    /// Row label, e.g. "TCP Pass-Through (many RPF)".
    pub name: &'static str,
    /// Can in-network devices change data and message lengths?
    pub data_mutation: Assessment,
    /// Can limited-state devices parse and buffer per message?
    pub low_buffering: Assessment,
    /// Can independent messages take different paths/replicas?
    pub inter_message_independence: Assessment,
    /// Can many resources each run their own CC algorithm?
    pub multi_resource_cc: Assessment,
    /// Can policies be applied per entity rather than per flow?
    pub multi_entity_isolation: Assessment,
}

impl TransportCapabilities {
    /// The five verdicts in table-column order.
    pub fn row(&self) -> [Support; 5] {
        [
            self.data_mutation.support,
            self.low_buffering.support,
            self.inter_message_independence.support,
            self.multi_resource_cc.support,
            self.multi_entity_isolation.support,
        ]
    }

    /// Count of satisfied requirements.
    pub fn score(&self) -> usize {
        self.row().iter().filter(|s| **s == Support::Yes).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoring_counts_only_yes() {
        let caps = TransportCapabilities {
            name: "test",
            data_mutation: Assessment::yes("a"),
            low_buffering: Assessment::no("b"),
            inter_message_independence: Assessment::yes("c"),
            multi_resource_cc: Assessment::unclear("d"),
            multi_entity_isolation: Assessment::no("e"),
        };
        assert_eq!(caps.score(), 2);
        assert_eq!(caps.row()[3], Support::Unclear);
        assert_eq!(Support::Yes.to_string(), "Y");
        assert_eq!(Support::No.to_string(), "x");
        assert_eq!(Support::Unclear.to_string(), "-");
    }
}
