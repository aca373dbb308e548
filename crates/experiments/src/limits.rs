//! Size limits shared by the JSON front ends that build a network from
//! a request: `customize` scenario files and `dse` batch queries. Both
//! reject a request above these before building anything from it.

/// Most switches a topology may declare.
pub const MAX_SWITCHES: u64 = 1024;
/// Most hosts a topology may declare.
pub const MAX_HOSTS: u64 = 4096;
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
