//! Workload generators matching the paper's evaluation setup
//! (Section IV.A).
//!
//! "We generate 1024 periodic TS flows and the period of each TS flow is
//! 10 ms. The deadline of each TS flow is randomly selected from the set
//! {1 ms, 2 ms, 4 ms, 8 ms}. The packet size … is selected from the set
//! {64 B, 128 B, 256 B, 512 B, 1024 B, 1500 B}. … Since the RC/BE flows
//! are background flows here, the packet size of each RC/BE flow is set
//! as 1024 B." Flow features follow IEC 60802's production-cell/line
//! profile.

use tsn_topology::Topology;
use tsn_types::{
    BeFlowSpec, DataRate, FlowId, FlowSet, RcFlowSpec, SimDuration, SplitMix64, TsFlowSpec,
    TsnError, TsnResult,
};

/// The paper's TS period (10 ms).
pub const TS_PERIOD: SimDuration = SimDuration::from_millis(10);
/// The paper's deadline set.
pub const DEADLINES_MS: [u64; 4] = [1, 2, 4, 8];
/// The paper's packet-size sweep (Fig. 7(b)).
pub const FRAME_SIZES: [u32; 6] = [64, 128, 256, 512, 1024, 1500];
/// The figures' background frame size for RC/BE flows.
pub const BACKGROUND_FRAME_BYTES: u32 = 1024;

fn hosts_of(topology: &Topology) -> TsnResult<Vec<tsn_types::NodeId>> {
    let hosts = topology.hosts();
    if hosts.len() < 2 {
        return Err(TsnError::invalid_parameter(
            "topology",
            "workloads need at least two hosts",
        ));
    }
    Ok(hosts.to_vec())
}

/// IEC 60802-style TS flows: `count` flows of 64 B at 10 ms period with
/// deadlines drawn uniformly from {1, 2, 4, 8} ms, talker/listener pairs
/// striped over consecutive hosts. Deterministic for a given `seed`.
///
/// # Errors
///
/// Returns [`TsnError::InvalidParameter`] for topologies with fewer than
/// two hosts.
pub fn iec60802_ts_flows(topology: &Topology, count: u32, seed: u64) -> TsnResult<FlowSet> {
    ts_flows_sized(topology, count, 64, seed)
}

/// As [`iec60802_ts_flows`] but with an explicit frame size (the Fig. 7(b)
/// sweep).
///
/// # Errors
///
/// As [`iec60802_ts_flows`]; frame sizes outside 64..=1522 are rejected.
pub fn ts_flows_sized(
    topology: &Topology,
    count: u32,
    frame_bytes: u32,
    seed: u64,
) -> TsnResult<FlowSet> {
    let hosts = hosts_of(topology)?;
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut flows = FlowSet::new();
    for id in 0..count {
        let src = hosts[id as usize % hosts.len()];
        let dst = hosts[(id as usize + 1) % hosts.len()];
        let deadline_ms = DEADLINES_MS[rng.gen_range(DEADLINES_MS.len() as u64) as usize];
        flows.push(
            TsFlowSpec::new(
                FlowId::new(id),
                src,
                dst,
                TS_PERIOD,
                SimDuration::from_millis(deadline_ms),
                frame_bytes,
            )?
            .into(),
        );
    }
    Ok(flows)
}

/// TS flows with one *uniform* QoS target — `count` flows of
/// `frame_bytes` at `period`, all sharing the same `deadline`, with
/// talker/listener pairs drawn seed-deterministically from the host set.
/// This is the requirements→query plumbing for design-space search
/// (`tsn-dse`), where a batch query states a single deadline target for
/// the whole flow set rather than the paper's per-flow random draw.
///
/// # Errors
///
/// Returns [`TsnError::InvalidParameter`] for topologies with fewer than
/// two hosts or a zero flow count; frame sizes outside 64..=1522 are
/// rejected by flow-spec validation.
pub fn uniform_ts_flows(
    topology: &Topology,
    count: u32,
    frame_bytes: u32,
    period: SimDuration,
    deadline: SimDuration,
    seed: u64,
) -> TsnResult<FlowSet> {
    if count == 0 {
        return Err(TsnError::invalid_parameter(
            "ts_count",
            "a query needs at least one TS flow",
        ));
    }
    let hosts = hosts_of(topology)?;
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut flows = FlowSet::new();
    for id in 0..count {
        let src = hosts[rng.gen_range(hosts.len() as u64) as usize];
        // Draw a distinct listener: offset in 1..len keeps src != dst.
        let offset = 1 + rng.gen_range(hosts.len() as u64 - 1) as usize;
        let dst = hosts[(hosts.iter().position(|&h| h == src).unwrap_or(0) + offset) % hosts.len()];
        flows.push(
            TsFlowSpec::new(FlowId::new(id), src, dst, period, deadline, frame_bytes)?.into(),
        );
    }
    Ok(flows)
}

/// TS flows that all follow one explicit path (the Fig. 7(a) hop sweep):
/// every flow runs `src → dst` with the given size and a deadline wide
/// enough for any slot the sweep uses.
///
/// # Errors
///
/// Propagates flow-spec validation.
pub fn ts_flows_fixed_path(
    count: u32,
    src: tsn_types::NodeId,
    dst: tsn_types::NodeId,
    frame_bytes: u32,
    deadline: SimDuration,
) -> TsnResult<FlowSet> {
    let mut flows = FlowSet::new();
    for id in 0..count {
        flows.push(
            TsFlowSpec::new(FlowId::new(id), src, dst, TS_PERIOD, deadline, frame_bytes)?.into(),
        );
    }
    Ok(flows)
}

/// One RC flow at `rc_rate` and one BE flow at `be_rate`, both of
/// `frame_bytes` frames, from the topology's first host to its second,
/// ids starting at `base_id`. Either rate may be zero to skip that
/// class.
///
/// # Errors
///
/// As [`iec60802_ts_flows`].
pub fn background_flows(
    topology: &Topology,
    rc_rate: DataRate,
    be_rate: DataRate,
    frame_bytes: u32,
    base_id: u32,
) -> TsnResult<FlowSet> {
    let hosts = hosts_of(topology)?;
    let mut flows = FlowSet::new();
    let mut id = base_id;
    let (src, dst) = (hosts[0], hosts[1]);
    if !rc_rate.is_zero() {
        flows.push(RcFlowSpec::new(FlowId::new(id), src, dst, rc_rate, frame_bytes)?.into());
        id += 1;
    }
    if !be_rate.is_zero() {
        flows.push(BeFlowSpec::new(FlowId::new(id), src, dst, be_rate, frame_bytes)?.into());
    }
    Ok(flows)
}

/// Merges two flow sets (ids must already be distinct).
#[must_use]
pub fn merge(mut a: FlowSet, b: FlowSet) -> FlowSet {
    a.extend(b);
    a
}

/// Splits one logical multicast TS stream into per-listener unicast
/// flows, the strategy the paper adopts: "We only create a unicast table
/// in our TSN switch because the multicast flows can be split into
/// multiple unicast flows" (Section IV.B).
///
/// Each listener gets its own [`FlowId`] starting at `base_id`, sharing
/// the talker, period, deadline and frame size.
///
/// # Errors
///
/// Returns [`TsnError::InvalidParameter`] for an empty listener list, and
/// propagates flow-spec validation.
pub fn split_multicast(
    src: tsn_types::NodeId,
    listeners: &[tsn_types::NodeId],
    base_id: u32,
    period: SimDuration,
    deadline: SimDuration,
    frame_bytes: u32,
) -> TsnResult<FlowSet> {
    if listeners.is_empty() {
        return Err(TsnError::invalid_parameter(
            "listeners",
            "a multicast stream needs at least one listener",
        ));
    }
    let mut flows = FlowSet::new();
    for (k, &dst) in listeners.iter().enumerate() {
        flows.push(
            TsFlowSpec::new(
                FlowId::new(base_id + k as u32),
                src,
                dst,
                period,
                deadline,
                frame_bytes,
            )?
            .into(),
        );
    }
    Ok(flows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_topology::presets;

    #[test]
    fn iec60802_flows_match_the_paper_profile() {
        let topo = presets::ring(6, 3).expect("builds");
        let flows = iec60802_ts_flows(&topo, 1024, 1).expect("workload builds");
        assert_eq!(flows.ts_count(), 1024);
        for flow in flows.ts_flows() {
            assert_eq!(flow.period(), TS_PERIOD);
            assert_eq!(flow.frame_bytes(), 64);
            let ms = flow.deadline().as_millis();
            assert!(DEADLINES_MS.contains(&ms), "deadline {ms} ms in the set");
        }
        // All four deadlines actually occur at this scale.
        for target in DEADLINES_MS {
            assert!(
                flows.ts_flows().any(|f| f.deadline().as_millis() == target),
                "deadline {target} ms should be drawn at n=1024"
            );
        }
    }

    #[test]
    fn workloads_are_seed_deterministic() {
        let topo = presets::ring(6, 3).expect("builds");
        let a = iec60802_ts_flows(&topo, 64, 9).expect("workload builds");
        let b = iec60802_ts_flows(&topo, 64, 9).expect("workload builds");
        assert_eq!(a, b);
        let c = iec60802_ts_flows(&topo, 64, 10).expect("workload builds");
        assert_ne!(a, c, "different seed, different deadlines");
    }

    #[test]
    fn uniform_flows_share_one_deadline_and_are_deterministic() {
        let topo = presets::ring(5, 3).expect("builds");
        let deadline = SimDuration::from_millis(4);
        let a = uniform_ts_flows(&topo, 32, 128, TS_PERIOD, deadline, 11).expect("builds");
        assert_eq!(a.ts_count(), 32);
        for flow in a.ts_flows() {
            assert_eq!(flow.deadline(), deadline);
            assert_eq!(flow.frame_bytes(), 128);
            assert_ne!(flow.src(), flow.dst(), "talker and listener differ");
        }
        let b = uniform_ts_flows(&topo, 32, 128, TS_PERIOD, deadline, 11).expect("builds");
        assert_eq!(a, b, "seed-deterministic");
        let c = uniform_ts_flows(&topo, 32, 128, TS_PERIOD, deadline, 12).expect("builds");
        assert_ne!(a, c, "different seed, different pairs");
        assert!(
            uniform_ts_flows(&topo, 0, 128, TS_PERIOD, deadline, 11).is_err(),
            "zero-flow queries are structured errors"
        );
    }

    #[test]
    fn fixed_path_flows_share_endpoints() {
        let topo = presets::ring(6, 6).expect("builds");
        let hosts = topo.hosts();
        let flows = ts_flows_fixed_path(16, hosts[0], hosts[3], 256, SimDuration::from_millis(8))
            .expect("workload builds");
        assert!(flows
            .ts_flows()
            .all(|f| f.src() == hosts[0] && f.dst() == hosts[3]));
        assert!(flows.ts_flows().all(|f| f.frame_bytes() == 256));
    }

    #[test]
    fn background_rates_and_classes() {
        let topo = presets::ring(6, 3).expect("builds");
        let bg = |rc, be| background_flows(&topo, rc, be, 1500, 5000).expect("workload builds");
        let both = bg(DataRate::mbps(100), DataRate::mbps(300));
        assert_eq!(both.rc_count(), 1);
        assert_eq!(both.be_count(), 1);
        assert!(both.iter().all(|f| f.frame_bytes() == 1500));
        let rc_only = bg(DataRate::mbps(100), DataRate::ZERO);
        assert_eq!(rc_only.len(), 1);
        let none = bg(DataRate::ZERO, DataRate::ZERO);
        assert!(none.is_empty());
    }

    #[test]
    fn merge_concatenates() {
        let topo = presets::ring(6, 3).expect("builds");
        let ts = iec60802_ts_flows(&topo, 8, 1).expect("workload builds");
        let bg = background_flows(
            &topo,
            DataRate::mbps(10),
            DataRate::mbps(10),
            BACKGROUND_FRAME_BYTES,
            100,
        )
        .expect("workload builds");
        let all = merge(ts, bg);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn multicast_splits_into_per_listener_unicast() {
        let topo = presets::ring(6, 3).expect("builds");
        let hosts = topo.hosts();
        let flows = split_multicast(
            hosts[0],
            &hosts[1..],
            500,
            TS_PERIOD,
            SimDuration::from_millis(4),
            128,
        )
        .expect("splits");
        assert_eq!(flows.ts_count(), 2);
        let ids: Vec<u32> = flows.iter().map(|f| f.id().index()).collect();
        assert_eq!(ids, vec![500, 501]);
        assert!(flows.ts_flows().all(|f| f.src() == hosts[0]));
        assert!(split_multicast(
            hosts[0],
            &[],
            0,
            TS_PERIOD,
            SimDuration::from_millis(4),
            128
        )
        .is_err());
    }

    #[test]
    fn too_few_hosts_is_rejected() {
        let mut topo = Topology::new();
        let s = topo.add_switch("s");
        let h = topo.add_host("h");
        topo.connect(h, s, DataRate::gbps(1)).expect("link");
        assert!(iec60802_ts_flows(&topo, 4, 0).is_err());
    }
}
