//! Size limits shared by the JSON front ends that build a network from
//! a request: `customize` scenario files and `dse` batch queries. Both
//! read their fields through [`crate::json::Fields`], whose bounded reads
//! apply [`within`], so a request above these is rejected before
//! anything is built from it. Preset names resolve in one table,
//! `tsn_topology::presets::Preset`. Worker counts given from outside the
//! program (`dse --workers`, `TSN_SWEEP_WORKERS`) are bounded here too.

/// Most switches a topology may declare.
pub const MAX_SWITCHES: u64 = 1024;
/// Most hosts a topology may declare.
pub const MAX_HOSTS: u64 = 4096;
/// Most links an inline topology may list.
pub const MAX_LINKS: u64 = 16384;
/// Most TS flows one request may ask for: the simulator tags flow `i`
/// with VLAN `1 + i % 4000` (`tsn_sim::network::vlan_for`), and the
/// exact table floors assume every flow owns its VLAN.
pub const MAX_TS_COUNT: u32 = 4000;
/// Longest simulated window, 1 s.
pub const MAX_DURATION_US: u64 = 1_000_000;
/// Fastest background (RC or BE) rate one request may offer, 10 Gb/s:
/// ten times the 1 Gb/s links, so any rate that saturates a port is
/// expressible, while `DataRate::mbps` stays far from overflowing.
pub const MAX_RATE_MBPS: u64 = 10_000;

/// Most worker threads a sweep or a `dse` batch may be asked for. A
/// sweep starts `min(workers, items)` OS threads, and a batch may hold
/// tens of thousands of queries; the response bytes do not depend on
/// the worker count, so a bound costs nothing but the threads.
pub const MAX_WORKERS: usize = 256;

/// A worker count as given on a command line or in the environment: a
/// whole number in `1..=MAX_WORKERS`.
///
/// # Errors
///
/// A message naming the rejected text and the accepted range.
pub fn workers(text: &str) -> Result<usize, String> {
    text.trim()
        .parse::<usize>()
        .ok()
        .filter(|n| (1..=MAX_WORKERS).contains(n))
        .ok_or_else(|| format!("worker count {text:?} is not a whole number in 1..={MAX_WORKERS}"))
}

/// Worker count for sweeps launched from binaries: `TSN_SWEEP_WORKERS`
/// when it holds a valid [`workers`] count, otherwise
/// [`tsn_sim::sweep::available_workers`].
#[must_use]
pub fn workers_from_env() -> usize {
    std::env::var("TSN_SWEEP_WORKERS")
        .ok()
        .and_then(|v| workers(&v).ok())
        .unwrap_or_else(tsn_sim::sweep::available_workers)
}

/// `value` of field `key` checked against `max`: a field-naming error
/// when it is larger.
///
/// # Errors
///
/// `field "key" holds value, above the limit of max`.
pub fn within(key: &str, value: u64, max: u64) -> Result<u64, String> {
    if value > max {
        return Err(format!(
            "field {key:?} holds {value}, above the limit of {max}"
        ));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_counts_are_bounded() {
        assert_eq!(workers("1"), Ok(1));
        assert_eq!(workers(" 4\n"), Ok(4));
        assert_eq!(workers(&MAX_WORKERS.to_string()), Ok(MAX_WORKERS));
        for bad in [
            "0",
            "257",
            "100000",
            "18446744073709551616",
            "-1",
            "2.5",
            "",
            "four",
        ] {
            let err = workers(bad).expect_err(bad);
            assert!(err.contains("1..=256"), "{err}");
        }
    }
}
