//! TS / RC / BE flow specifications.
//!
//! These are the *application requirements* side of the paper: a scenario is
//! described by its topology plus a set of flows with known periods,
//! deadlines, sizes and endpoints (Section II.A: "the features in
//! TSN-related domains are pre-determined and simple"). The builder crate
//! derives resource parameters from a [`FlowSet`].

use crate::error::{TsnError, TsnResult};
use crate::frame::{MAX_FRAME_BYTES, MIN_FRAME_BYTES};
use crate::ids::{FlowId, NodeId};
use crate::time::{DataRate, SimDuration};

/// A periodic time-sensitive flow (highest priority).
///
/// TS packets are generated every `period`; each must reach the listener
/// within `deadline` of its injection, with ultra-low jitter and zero loss.
///
/// # Example
///
/// ```
/// use tsn_types::{TsFlowSpec, FlowId, NodeId, SimDuration};
///
/// let flow = TsFlowSpec::new(
///     FlowId::new(0),
///     NodeId::new(0),
///     NodeId::new(3),
///     SimDuration::from_millis(10), // period
///     SimDuration::from_millis(2),  // deadline
///     64,                           // frame bytes
/// )?;
/// assert_eq!(flow.period(), SimDuration::from_millis(10));
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TsFlowSpec {
    id: FlowId,
    src: NodeId,
    dst: NodeId,
    period: SimDuration,
    deadline: SimDuration,
    frame_bytes: u32,
}

impl TsFlowSpec {
    /// Creates a TS flow spec, validating all parameters.
    ///
    /// # Errors
    ///
    /// * [`TsnError::InvalidParameter`] if `period` or `deadline` is zero,
    ///   or `deadline > period` is violated the other way round (a deadline
    ///   longer than the period is allowed; a zero one is not).
    /// * [`TsnError::InvalidFrameSize`] if `frame_bytes` is outside 64..=1522.
    pub fn new(
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        period: SimDuration,
        deadline: SimDuration,
        frame_bytes: u32,
    ) -> TsnResult<Self> {
        if period.is_zero() {
            return Err(TsnError::invalid_parameter("period", "must be non-zero"));
        }
        if deadline.is_zero() {
            return Err(TsnError::invalid_parameter("deadline", "must be non-zero"));
        }
        if !(MIN_FRAME_BYTES..=MAX_FRAME_BYTES).contains(&frame_bytes) {
            return Err(TsnError::InvalidFrameSize(frame_bytes));
        }
        Ok(TsFlowSpec {
            id,
            src,
            dst,
            period,
            deadline,
            frame_bytes,
        })
    }

    /// Flow identifier.
    #[must_use]
    pub fn id(&self) -> FlowId {
        self.id
    }

    /// Talker node.
    #[must_use]
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Listener node.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Packet generation period.
    #[must_use]
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// End-to-end deadline, measured from injection.
    #[must_use]
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }

    /// Frame size on the wire, in bytes.
    #[must_use]
    pub fn frame_bytes(&self) -> u32 {
        self.frame_bytes
    }
}

/// A rate-constrained flow (medium priority), shaped by a credit-based
/// shaper at each hop.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RcFlowSpec {
    id: FlowId,
    src: NodeId,
    dst: NodeId,
    reserved_rate: DataRate,
    frame_bytes: u32,
}

impl RcFlowSpec {
    /// Creates an RC flow spec.
    ///
    /// # Errors
    ///
    /// * [`TsnError::InvalidParameter`] if `reserved_rate` is zero.
    /// * [`TsnError::InvalidFrameSize`] if `frame_bytes` is outside 64..=1522.
    pub fn new(
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        reserved_rate: DataRate,
        frame_bytes: u32,
    ) -> TsnResult<Self> {
        if reserved_rate.is_zero() {
            return Err(TsnError::invalid_parameter(
                "reserved_rate",
                "must be non-zero",
            ));
        }
        if !(MIN_FRAME_BYTES..=MAX_FRAME_BYTES).contains(&frame_bytes) {
            return Err(TsnError::InvalidFrameSize(frame_bytes));
        }
        Ok(RcFlowSpec {
            id,
            src,
            dst,
            reserved_rate,
            frame_bytes,
        })
    }

    /// Flow identifier.
    #[must_use]
    pub fn id(&self) -> FlowId {
        self.id
    }

    /// Talker node.
    #[must_use]
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Listener node.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Bandwidth reserved for the flow (the shaper's `idleSlope`).
    #[must_use]
    pub fn reserved_rate(&self) -> DataRate {
        self.reserved_rate
    }

    /// Frame size on the wire, in bytes.
    #[must_use]
    pub fn frame_bytes(&self) -> u32 {
        self.frame_bytes
    }
}

/// A best-effort flow (lowest priority). `offered_rate` is the load the
/// talker tries to inject; the network gives it whatever is left.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BeFlowSpec {
    id: FlowId,
    src: NodeId,
    dst: NodeId,
    offered_rate: DataRate,
    frame_bytes: u32,
}

impl BeFlowSpec {
    /// Creates a BE flow spec.
    ///
    /// # Errors
    ///
    /// * [`TsnError::InvalidParameter`] if `offered_rate` is zero.
    /// * [`TsnError::InvalidFrameSize`] if `frame_bytes` is outside 64..=1522.
    pub fn new(
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        offered_rate: DataRate,
        frame_bytes: u32,
    ) -> TsnResult<Self> {
        if offered_rate.is_zero() {
            return Err(TsnError::invalid_parameter(
                "offered_rate",
                "must be non-zero",
            ));
        }
        if !(MIN_FRAME_BYTES..=MAX_FRAME_BYTES).contains(&frame_bytes) {
            return Err(TsnError::InvalidFrameSize(frame_bytes));
        }
        Ok(BeFlowSpec {
            id,
            src,
            dst,
            offered_rate,
            frame_bytes,
        })
    }

    /// Flow identifier.
    #[must_use]
    pub fn id(&self) -> FlowId {
        self.id
    }

    /// Talker node.
    #[must_use]
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Listener node.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// The load the talker offers.
    #[must_use]
    pub fn offered_rate(&self) -> DataRate {
        self.offered_rate
    }

    /// Frame size on the wire, in bytes.
    #[must_use]
    pub fn frame_bytes(&self) -> u32 {
        self.frame_bytes
    }
}

/// Any of the three flow kinds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FlowSpec {
    /// Time-sensitive flow.
    Ts(TsFlowSpec),
    /// Rate-constrained flow.
    Rc(RcFlowSpec),
    /// Best-effort flow.
    Be(BeFlowSpec),
}

impl FlowSpec {
    /// Flow identifier.
    #[must_use]
    pub fn id(&self) -> FlowId {
        match self {
            FlowSpec::Ts(f) => f.id(),
            FlowSpec::Rc(f) => f.id(),
            FlowSpec::Be(f) => f.id(),
        }
    }

    /// Talker node.
    #[must_use]
    pub fn src(&self) -> NodeId {
        match self {
            FlowSpec::Ts(f) => f.src(),
            FlowSpec::Rc(f) => f.src(),
            FlowSpec::Be(f) => f.src(),
        }
    }

    /// Listener node.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        match self {
            FlowSpec::Ts(f) => f.dst(),
            FlowSpec::Rc(f) => f.dst(),
            FlowSpec::Be(f) => f.dst(),
        }
    }

    /// Frame size on the wire, in bytes.
    #[must_use]
    pub fn frame_bytes(&self) -> u32 {
        match self {
            FlowSpec::Ts(f) => f.frame_bytes(),
            FlowSpec::Rc(f) => f.frame_bytes(),
            FlowSpec::Be(f) => f.frame_bytes(),
        }
    }

    /// Traffic class of the flow.
    #[must_use]
    pub fn class(&self) -> crate::TrafficClass {
        match self {
            FlowSpec::Ts(_) => crate::TrafficClass::TimeSensitive,
            FlowSpec::Rc(_) => crate::TrafficClass::RateConstrained,
            FlowSpec::Be(_) => crate::TrafficClass::BestEffort,
        }
    }

    /// The TS spec, if this is a TS flow.
    #[must_use]
    pub fn as_ts(&self) -> Option<&TsFlowSpec> {
        match self {
            FlowSpec::Ts(f) => Some(f),
            _ => None,
        }
    }

    /// The RC spec, if this is an RC flow.
    #[must_use]
    pub fn as_rc(&self) -> Option<&RcFlowSpec> {
        match self {
            FlowSpec::Rc(f) => Some(f),
            _ => None,
        }
    }

    /// The BE spec, if this is a BE flow.
    #[must_use]
    pub fn as_be(&self) -> Option<&BeFlowSpec> {
        match self {
            FlowSpec::Be(f) => Some(f),
            _ => None,
        }
    }
}

impl From<TsFlowSpec> for FlowSpec {
    fn from(f: TsFlowSpec) -> Self {
        FlowSpec::Ts(f)
    }
}

impl From<RcFlowSpec> for FlowSpec {
    fn from(f: RcFlowSpec) -> Self {
        FlowSpec::Rc(f)
    }
}

impl From<BeFlowSpec> for FlowSpec {
    fn from(f: BeFlowSpec) -> Self {
        FlowSpec::Be(f)
    }
}

/// A collection of flows describing one application scenario.
///
/// # Example
///
/// ```
/// use tsn_types::{FlowSet, TsFlowSpec, FlowId, NodeId, SimDuration};
///
/// let mut set = FlowSet::new();
/// for i in 0..4 {
///     set.push(TsFlowSpec::new(
///         FlowId::new(i),
///         NodeId::new(0),
///         NodeId::new(1),
///         SimDuration::from_millis(if i % 2 == 0 { 10 } else { 4 }),
///         SimDuration::from_millis(2),
///         64,
///     )?.into());
/// }
/// assert_eq!(set.len(), 4);
/// assert_eq!(set.ts_count(), 4);
/// // Scheduling cycle = lcm(10ms, 4ms) = 20ms (Section III.C guideline 2).
/// assert_eq!(set.scheduling_cycle(), Some(SimDuration::from_millis(20)));
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug, Default, Clone, PartialEq, Hash)]
pub struct FlowSet {
    flows: Vec<FlowSpec>,
}

impl FlowSet {
    /// Creates an empty flow set.
    #[must_use]
    pub fn new() -> Self {
        FlowSet::default()
    }

    /// Adds a flow.
    pub fn push(&mut self, flow: FlowSpec) {
        self.flows.push(flow);
    }

    /// Number of flows of all classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// `true` if the set holds no flows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Iterates over all flows.
    pub fn iter(&self) -> core::slice::Iter<'_, FlowSpec> {
        self.flows.iter()
    }

    /// Iterates over the TS flows only.
    pub fn ts_flows(&self) -> impl Iterator<Item = &TsFlowSpec> {
        self.flows.iter().filter_map(FlowSpec::as_ts)
    }

    /// Iterates over the RC flows only.
    pub fn rc_flows(&self) -> impl Iterator<Item = &RcFlowSpec> {
        self.flows.iter().filter_map(FlowSpec::as_rc)
    }

    /// Iterates over the BE flows only.
    pub fn be_flows(&self) -> impl Iterator<Item = &BeFlowSpec> {
        self.flows.iter().filter_map(FlowSpec::as_be)
    }

    /// Number of TS flows.
    #[must_use]
    pub fn ts_count(&self) -> usize {
        self.ts_flows().count()
    }

    /// Number of RC flows.
    #[must_use]
    pub fn rc_count(&self) -> usize {
        self.rc_flows().count()
    }

    /// Number of BE flows.
    #[must_use]
    pub fn be_count(&self) -> usize {
        self.be_flows().count()
    }

    /// Looks up a flow by id.
    #[must_use]
    pub fn get(&self, id: FlowId) -> Option<&FlowSpec> {
        self.flows.iter().find(|f| f.id() == id)
    }

    /// The scheduling cycle: least common multiple of all TS flow periods
    /// (Section III.C guideline 2), or `None` if there are no TS flows.
    #[must_use]
    pub fn scheduling_cycle(&self) -> Option<SimDuration> {
        self.ts_flows()
            .map(TsFlowSpec::period)
            .reduce(|a, b| a.lcm(b))
    }

    /// The largest frame size in the set, or `None` if empty.
    #[must_use]
    pub fn max_frame_bytes(&self) -> Option<u32> {
        self.flows.iter().map(FlowSpec::frame_bytes).max()
    }
}

impl FromIterator<FlowSpec> for FlowSet {
    fn from_iter<I: IntoIterator<Item = FlowSpec>>(iter: I) -> Self {
        FlowSet {
            flows: iter.into_iter().collect(),
        }
    }
}

impl Extend<FlowSpec> for FlowSet {
    fn extend<I: IntoIterator<Item = FlowSpec>>(&mut self, iter: I) {
        self.flows.extend(iter);
    }
}

impl<'a> IntoIterator for &'a FlowSet {
    type Item = &'a FlowSpec;
    type IntoIter = core::slice::Iter<'a, FlowSpec>;
    fn into_iter(self) -> Self::IntoIter {
        self.flows.iter()
    }
}

impl IntoIterator for FlowSet {
    type Item = FlowSpec;
    type IntoIter = std::vec::IntoIter<FlowSpec>;
    fn into_iter(self) -> Self::IntoIter {
        self.flows.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(id: u32, period_ms: u64) -> TsFlowSpec {
        TsFlowSpec::new(
            FlowId::new(id),
            NodeId::new(0),
            NodeId::new(1),
            SimDuration::from_millis(period_ms),
            SimDuration::from_millis(2),
            64,
        )
        .expect("valid ts flow")
    }

    #[test]
    fn ts_validation() {
        assert!(TsFlowSpec::new(
            FlowId::new(0),
            NodeId::new(0),
            NodeId::new(1),
            SimDuration::ZERO,
            SimDuration::from_millis(1),
            64
        )
        .is_err());
        assert!(TsFlowSpec::new(
            FlowId::new(0),
            NodeId::new(0),
            NodeId::new(1),
            SimDuration::from_millis(1),
            SimDuration::ZERO,
            64
        )
        .is_err());
        assert!(TsFlowSpec::new(
            FlowId::new(0),
            NodeId::new(0),
            NodeId::new(1),
            SimDuration::from_millis(1),
            SimDuration::from_millis(1),
            4000
        )
        .is_err());
    }

    #[test]
    fn rc_and_be_validation() {
        assert!(RcFlowSpec::new(
            FlowId::new(0),
            NodeId::new(0),
            NodeId::new(1),
            DataRate::ZERO,
            64
        )
        .is_err());
        assert!(BeFlowSpec::new(
            FlowId::new(0),
            NodeId::new(0),
            NodeId::new(1),
            DataRate::mbps(10),
            63
        )
        .is_err());
        assert!(RcFlowSpec::new(
            FlowId::new(0),
            NodeId::new(0),
            NodeId::new(1),
            DataRate::mbps(10),
            1024
        )
        .is_ok());
    }

    #[test]
    fn flow_set_counts_and_accessors() {
        let mut set = FlowSet::new();
        set.push(ts(0, 10).into());
        set.push(
            RcFlowSpec::new(
                FlowId::new(1),
                NodeId::new(0),
                NodeId::new(1),
                DataRate::mbps(100),
                1024,
            )
            .expect("valid rc")
            .into(),
        );
        set.push(
            BeFlowSpec::new(
                FlowId::new(2),
                NodeId::new(0),
                NodeId::new(1),
                DataRate::mbps(300),
                1024,
            )
            .expect("valid be")
            .into(),
        );
        assert_eq!(set.len(), 3);
        assert_eq!((set.ts_count(), set.rc_count(), set.be_count()), (1, 1, 1));
        assert_eq!(set.max_frame_bytes(), Some(1024));
        assert!(set.get(FlowId::new(1)).is_some());
        assert!(set.get(FlowId::new(99)).is_none());
        assert_eq!(
            set.get(FlowId::new(2)).map(FlowSpec::class),
            Some(crate::TrafficClass::BestEffort)
        );
    }

    #[test]
    fn scheduling_cycle_is_lcm_of_periods() {
        let set: FlowSet = [ts(0, 10), ts(1, 4), ts(2, 8)]
            .into_iter()
            .map(FlowSpec::from)
            .collect();
        assert_eq!(set.scheduling_cycle(), Some(SimDuration::from_millis(40)));
        assert_eq!(FlowSet::new().scheduling_cycle(), None);
    }

    #[test]
    fn extend_and_into_iter() {
        let mut set = FlowSet::new();
        set.extend([FlowSpec::from(ts(0, 10))]);
        let ids: Vec<FlowId> = (&set).into_iter().map(FlowSpec::id).collect();
        assert_eq!(ids, vec![FlowId::new(0)]);
        let owned: Vec<FlowSpec> = set.into_iter().collect();
        assert_eq!(owned.len(), 1);
    }
}
