//! The **Packet Switch** template: parser + lookup (Fig. 5, left).
//!
//! "It is used to lookup the outport for each packet with the specified
//! packet fields. … the unicast table is firstly matched with the *Dst MAC*
//! and *VID* in the packet header for finding the outport. If *Dst MAC* is
//! a multicast address, the multicast index (*MC ID*) is used to find a set
//! of outports from the multicast table." (Sections III.A/III.B)

use crate::table::CapTable;
use std::sync::Arc;
use tsn_types::{EthernetFrame, MacAddr, McId, Pcp, PortId, TsnResult, VlanId};

/// The header fields the parser submodule extracts from a frame.
///
/// On the FPGA this is the output of the parser pipeline stage; here it is
/// a plain struct so the lookup stage (and tests) can be driven without a
/// full frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketFields {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// VLAN identifier.
    pub vlan: VlanId,
    /// Priority code point.
    pub pcp: Pcp,
    /// Multicast index carried by group-addressed frames.
    pub mc_id: Option<McId>,
}

impl PacketFields {
    /// Parses (extracts) the lookup-relevant fields of a frame.
    #[must_use]
    pub fn parse(frame: &EthernetFrame) -> Self {
        PacketFields {
            dst: frame.dst(),
            src: frame.src(),
            vlan: frame.vlan(),
            pcp: frame.pcp(),
            mc_id: frame.mc_id(),
        }
    }
}

/// Result of a forwarding lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Forward out of a single port.
    Unicast(PortId),
    /// Replicate to a set of ports. The port set is interned behind an
    /// `Arc` at install time, so the per-frame lookup is a refcount bump
    /// instead of a heap-allocating `Vec` clone.
    Multicast(Arc<[PortId]>),
    /// No matching entry — the frame cannot be forwarded
    /// deterministically. (A TSN switch must not flood TS traffic; misses
    /// are counted and the frame dropped by the pipeline.)
    Miss,
}

impl LookupOutcome {
    /// All egress ports the outcome names.
    #[must_use]
    pub fn ports(&self) -> &[PortId] {
        match self {
            LookupOutcome::Unicast(p) => core::slice::from_ref(p),
            LookupOutcome::Multicast(ports) => ports,
            LookupOutcome::Miss => &[],
        }
    }

    /// `true` when no entry matched.
    #[must_use]
    pub fn is_miss(&self) -> bool {
        matches!(self, LookupOutcome::Miss)
    }
}

/// The packet-switch template instance: a unicast table keyed on
/// `(dst MAC, VID)` plus a multicast table keyed on `MC ID`.
///
/// # Example
///
/// ```
/// use tsn_switch::packet_switch::{PacketSwitch, LookupOutcome};
/// use tsn_types::{MacAddr, VlanId, PortId};
///
/// let mut ps = PacketSwitch::new(1024, 0);
/// let dst = MacAddr::station(7);
/// ps.add_unicast(dst, VlanId::DEFAULT, PortId::new(2))?;
/// let hit = ps.lookup_fields(dst, VlanId::DEFAULT, None);
/// assert_eq!(hit, LookupOutcome::Unicast(PortId::new(2)));
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PacketSwitch {
    /// Exact entries are keyed `(dst, Some(vid))`; aggregated entries
    /// (Section III.C guideline 1: "some table entries could be
    /// aggregated according to the transmission path") use `(dst, None)`
    /// and match any VLAN. Both kinds share the table's capacity.
    unicast: CapTable<(MacAddr, Option<VlanId>), PortId>,
    /// Interned port sets: lookups hand out shared references, never
    /// per-frame copies of the group membership.
    multicast: CapTable<McId, Arc<[PortId]>>,
}

impl PacketSwitch {
    /// Creates the template with the given table sizes (the
    /// `set_switch_tbl(unicast_size, multicast_size)` parameters).
    #[must_use]
    pub fn new(unicast_size: usize, multicast_size: usize) -> Self {
        PacketSwitch {
            unicast: CapTable::new("unicast switch table", unicast_size),
            multicast: CapTable::new("multicast switch table", multicast_size),
        }
    }

    /// Installs a unicast forwarding entry.
    ///
    /// # Errors
    ///
    /// Returns [`tsn_types::TsnError::CapacityExceeded`] when the unicast
    /// table is full.
    pub fn add_unicast(&mut self, dst: MacAddr, vlan: VlanId, port: PortId) -> TsnResult<()> {
        self.unicast.insert((dst, Some(vlan)), port)?;
        Ok(())
    }

    /// Installs an *aggregated* unicast entry that matches the
    /// destination on any VLAN — one entry per destination instead of one
    /// per flow, the optimization guideline (1) suggests for flows that
    /// share a transmission path.
    ///
    /// # Errors
    ///
    /// Returns [`tsn_types::TsnError::CapacityExceeded`] when the unicast
    /// table is full.
    pub fn add_unicast_any_vlan(&mut self, dst: MacAddr, port: PortId) -> TsnResult<()> {
        self.unicast.insert((dst, None), port)?;
        Ok(())
    }

    /// Reserves unicast-table storage for `entries` installs, clipped to
    /// the table's capacity ([`CapTable::reserve`]).
    pub(crate) fn reserve_unicast(&mut self, entries: usize) {
        self.unicast.reserve(entries);
    }

    /// Installs a multicast group entry.
    ///
    /// # Errors
    ///
    /// Returns [`tsn_types::TsnError::CapacityExceeded`] when the
    /// multicast table is full.
    pub fn add_multicast(&mut self, mc_id: McId, ports: Vec<PortId>) -> TsnResult<()> {
        self.multicast.insert(mc_id, ports.into())?;
        Ok(())
    }

    /// Re-provisions both table capacities in place, keeping the
    /// programmed entries — the incremental-reconfiguration path.
    ///
    /// Returns `false` when either table already holds more entries than
    /// its new size allows; a from-scratch build at those sizes would
    /// have rejected an install, so the caller must replay instead. On
    /// `false` the unicast capacity may already have been updated — the
    /// caller discards the (cloned) switch state on that path.
    #[must_use]
    pub fn reprovision(&mut self, unicast_size: usize, multicast_size: usize) -> bool {
        self.unicast.set_capacity(unicast_size) && self.multicast.set_capacity(multicast_size)
    }

    /// Looks up the outport(s) for a frame.
    pub fn lookup(&self, frame: &EthernetFrame) -> LookupOutcome {
        let fields = PacketFields::parse(frame);
        self.lookup_fields(fields.dst, fields.vlan, fields.mc_id)
    }

    /// Looks up by raw fields (the lookup submodule's native interface).
    pub fn lookup_fields(&self, dst: MacAddr, vlan: VlanId, mc_id: Option<McId>) -> LookupOutcome {
        if dst.is_multicast() {
            let Some(mc) = mc_id else {
                return LookupOutcome::Miss;
            };
            match self.multicast.get(&mc) {
                // Cloning an `Arc<[PortId]>` is a refcount bump — the
                // interned port set itself is never copied per frame.
                Some(ports) => LookupOutcome::Multicast(Arc::clone(ports)),
                None => LookupOutcome::Miss,
            }
        } else {
            // Exact (dst, vid) first, then the aggregated any-VLAN entry.
            if let Some(&port) = self.unicast.get(&(dst, Some(vlan))) {
                return LookupOutcome::Unicast(port);
            }
            match self.unicast.get(&(dst, None)) {
                Some(&port) => LookupOutcome::Unicast(port),
                None => LookupOutcome::Miss,
            }
        }
    }

    /// Occupancy of the unicast table.
    #[must_use]
    pub fn unicast_occupancy(&self) -> usize {
        self.unicast.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_types::{FlowId, TrafficClass};

    fn frame_to(dst: MacAddr) -> EthernetFrame {
        EthernetFrame::builder()
            .src(MacAddr::station(0))
            .dst(dst)
            .class(TrafficClass::TimeSensitive)
            .size_bytes(64)
            .flow(FlowId::new(1))
            .build()
            .expect("valid frame")
    }

    #[test]
    fn unicast_lookup_hits_and_misses() {
        let mut ps = PacketSwitch::new(4, 0);
        let dst = MacAddr::station(9);
        ps.add_unicast(dst, VlanId::DEFAULT, PortId::new(1))
            .expect("fits");
        assert_eq!(
            ps.lookup(&frame_to(dst)),
            LookupOutcome::Unicast(PortId::new(1))
        );
        assert_eq!(
            ps.lookup(&frame_to(MacAddr::station(8))),
            LookupOutcome::Miss
        );
        // The two-pass lookup: an exact (dst, vid) entry wins over the
        // aggregated any-VLAN entry, which catches every other VLAN.
        let other = VlanId::new(7).expect("legal vid");
        ps.add_unicast_any_vlan(dst, PortId::new(2)).expect("fits");
        assert_eq!(
            ps.lookup_fields(dst, VlanId::DEFAULT, None),
            LookupOutcome::Unicast(PortId::new(1))
        );
        assert_eq!(
            ps.lookup_fields(dst, other, None),
            LookupOutcome::Unicast(PortId::new(2))
        );
        assert_eq!(
            ps.lookup_fields(MacAddr::station(8), other, None),
            LookupOutcome::Miss
        );
    }

    #[test]
    fn aggregated_entry_matches_any_vlan() {
        let mut ps = PacketSwitch::new(4, 0);
        let dst = MacAddr::station(9);
        ps.add_unicast_any_vlan(dst, PortId::new(3)).expect("fits");
        for vid in [1u16, 7, 4000] {
            let vlan = VlanId::new(vid).expect("legal vid");
            assert_eq!(
                ps.lookup_fields(dst, vlan, None),
                LookupOutcome::Unicast(PortId::new(3))
            );
        }
        assert_eq!(ps.unicast_occupancy(), 1, "one entry covers every VLAN");
    }

    #[test]
    fn exact_entry_wins_over_aggregated() {
        let mut ps = PacketSwitch::new(4, 0);
        let dst = MacAddr::station(9);
        ps.add_unicast_any_vlan(dst, PortId::new(3)).expect("fits");
        ps.add_unicast(dst, VlanId::DEFAULT, PortId::new(1))
            .expect("fits");
        assert_eq!(
            ps.lookup_fields(dst, VlanId::DEFAULT, None),
            LookupOutcome::Unicast(PortId::new(1)),
            "exact match takes precedence"
        );
        let other = VlanId::new(5).expect("legal vid");
        assert_eq!(
            ps.lookup_fields(dst, other, None),
            LookupOutcome::Unicast(PortId::new(3)),
            "other VLANs fall back to the aggregate"
        );
    }

    #[test]
    fn aggregated_entries_share_capacity() {
        let mut ps = PacketSwitch::new(1, 0);
        ps.add_unicast_any_vlan(MacAddr::station(1), PortId::new(0))
            .expect("fits");
        assert!(ps
            .add_unicast(MacAddr::station(2), VlanId::DEFAULT, PortId::new(0))
            .is_err());
    }

    #[test]
    fn unicast_is_keyed_on_vlan_too() {
        let mut ps = PacketSwitch::new(4, 0);
        let dst = MacAddr::station(9);
        let v2 = VlanId::new(2).expect("valid vid");
        ps.add_unicast(dst, VlanId::DEFAULT, PortId::new(1))
            .expect("fits");
        ps.add_unicast(dst, v2, PortId::new(2)).expect("fits");
        assert_eq!(
            ps.lookup_fields(dst, v2, None),
            LookupOutcome::Unicast(PortId::new(2))
        );
        assert_eq!(
            ps.lookup_fields(dst, VlanId::DEFAULT, None),
            LookupOutcome::Unicast(PortId::new(1))
        );
    }

    #[test]
    fn multicast_uses_the_mc_index() {
        let mut ps = PacketSwitch::new(0, 4);
        let group = MacAddr::new([0x01, 0, 0x5e, 0, 0, 1]);
        ps.add_multicast(McId::new(3), vec![PortId::new(0), PortId::new(2)])
            .expect("fits");
        let mut frame = frame_to(group);
        frame = EthernetFrame::builder()
            .src(frame.src())
            .dst(group)
            .size_bytes(64)
            .mc_id(McId::new(3))
            .build()
            .expect("valid frame");
        match ps.lookup(&frame) {
            LookupOutcome::Multicast(ports) => {
                assert_eq!(&ports[..], [PortId::new(0), PortId::new(2)]);
            }
            other => panic!("expected multicast outcome, got {other:?}"),
        }
        // A group frame without an MC id cannot be resolved.
        let tagless = frame_to(group);
        assert!(ps.lookup(&tagless).is_miss());
    }

    #[test]
    fn capacity_mirrors_set_switch_tbl() {
        let mut ps = PacketSwitch::new(2, 1);
        ps.add_unicast(MacAddr::station(1), VlanId::DEFAULT, PortId::new(0))
            .expect("fits");
        ps.add_unicast(MacAddr::station(2), VlanId::DEFAULT, PortId::new(0))
            .expect("fits");
        assert!(ps
            .add_unicast(MacAddr::station(3), VlanId::DEFAULT, PortId::new(0))
            .is_err());
        ps.add_multicast(McId::new(0), vec![]).expect("fits");
        assert!(ps.add_multicast(McId::new(1), vec![]).is_err());
        assert_eq!(ps.unicast_occupancy(), 2);
        assert_eq!(ps.multicast.occupancy(), 1);
    }

    #[test]
    fn outcome_ports_view() {
        assert_eq!(
            LookupOutcome::Unicast(PortId::new(3)).ports(),
            &[PortId::new(3)]
        );
        assert!(LookupOutcome::Miss.ports().is_empty());
        assert!(LookupOutcome::Miss.is_miss());
    }

    #[test]
    fn parser_extracts_fields() {
        let f = frame_to(MacAddr::station(5));
        let fields = PacketFields::parse(&f);
        assert_eq!(fields.dst, MacAddr::station(5));
        assert_eq!(fields.src, MacAddr::station(0));
        assert_eq!(fields.vlan, VlanId::DEFAULT);
        assert_eq!(fields.mc_id, None);
    }
}
