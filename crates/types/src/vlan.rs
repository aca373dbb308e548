//! 802.1Q VLAN identifiers and priority code points.

use crate::error::{TsnError, TsnResult};
use core::fmt;

/// A 12-bit 802.1Q VLAN identifier (1..=4094; 0 and 4095 are reserved).
///
/// # Example
///
/// ```
/// use tsn_types::VlanId;
///
/// let vid = VlanId::new(100)?;
/// assert_eq!(vid.value(), 100);
/// assert!(VlanId::new(0).is_err());
/// assert!(VlanId::new(4095).is_err());
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VlanId(u16);

impl VlanId {
    /// The smallest legal VLAN id.
    pub const MIN: VlanId = VlanId(1);
    /// The largest legal VLAN id.
    pub const MAX: VlanId = VlanId(4094);
    /// The conventional default VLAN (VID 1).
    pub const DEFAULT: VlanId = VlanId(1);

    /// Creates a VLAN id, validating the 802.1Q range.
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::InvalidVlanId`] for 0 (priority tag), 4095
    /// (reserved) and anything above 12 bits.
    pub fn new(value: u16) -> TsnResult<Self> {
        if (1..=4094).contains(&value) {
            Ok(VlanId(value))
        } else {
            Err(TsnError::InvalidVlanId(value))
        }
    }

    /// The numeric id.
    #[must_use]
    pub const fn value(self) -> u16 {
        self.0
    }
}

impl Default for VlanId {
    fn default() -> Self {
        VlanId::DEFAULT
    }
}

impl fmt::Display for VlanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vlan{}", self.0)
    }
}

impl TryFrom<u16> for VlanId {
    type Error = TsnError;
    fn try_from(value: u16) -> TsnResult<Self> {
        VlanId::new(value)
    }
}

impl From<VlanId> for u16 {
    fn from(vid: VlanId) -> u16 {
        vid.0
    }
}

/// A 3-bit 802.1Q Priority Code Point.
///
/// The paper's flow taxonomy maps onto PCPs as: TS flows use the highest
/// priority, RC flows a medium band, BE flows the lowest (Section II.A).
/// [`crate::TrafficClass`] provides that mapping; `Pcp` is the raw wire
/// field.
///
/// # Example
///
/// ```
/// use tsn_types::Pcp;
///
/// let pcp = Pcp::new(7)?;
/// assert_eq!(pcp.value(), 7);
/// assert!(Pcp::new(8).is_err());
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pcp(u8);

impl Pcp {
    /// Lowest priority (0).
    pub const LOWEST: Pcp = Pcp(0);
    /// The conventional medium (AVB/rate-constrained) priority (3).
    pub const MEDIUM: Pcp = Pcp(3);
    /// Highest priority (7).
    pub const HIGHEST: Pcp = Pcp(7);

    /// Creates a PCP, validating the 3-bit range.
    ///
    /// # Errors
    ///
    /// Returns [`TsnError::InvalidPcp`] for values above 7.
    pub fn new(value: u8) -> TsnResult<Self> {
        if value <= 7 {
            Ok(Pcp(value))
        } else {
            Err(TsnError::InvalidPcp(value))
        }
    }

    /// The numeric 0..=7 priority.
    #[must_use]
    pub const fn value(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Pcp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pcp{}", self.0)
    }
}

impl TryFrom<u8> for Pcp {
    type Error = TsnError;
    fn try_from(value: u8) -> TsnResult<Self> {
        Pcp::new(value)
    }
}

impl From<Pcp> for u8 {
    fn from(pcp: Pcp) -> u8 {
        pcp.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vlan_range_is_enforced() {
        assert!(VlanId::new(1).is_ok());
        assert!(VlanId::new(4094).is_ok());
        assert!(matches!(VlanId::new(0), Err(TsnError::InvalidVlanId(0))));
        assert!(matches!(
            VlanId::new(4095),
            Err(TsnError::InvalidVlanId(4095))
        ));
        assert!(VlanId::new(u16::MAX).is_err());
        // Exhaustive: exactly 1..=4094 is legal.
        for vid in 0..=u16::MAX {
            assert_eq!(VlanId::new(vid).is_ok(), (1..=4094).contains(&vid), "{vid}");
        }
    }

    #[test]
    fn vlan_conversions() {
        let vid = VlanId::try_from(42).expect("42 is a legal vid");
        assert_eq!(u16::from(vid), 42);
        assert_eq!(vid.to_string(), "vlan42");
        assert_eq!(VlanId::default(), VlanId::DEFAULT);
    }

    #[test]
    fn pcp_range_is_enforced() {
        for v in 0..=7 {
            assert!(Pcp::new(v).is_ok());
        }
        assert!(matches!(Pcp::new(8), Err(TsnError::InvalidPcp(8))));
        // Exhaustive: exactly 0..=7 is legal.
        for pcp in 0..=u8::MAX {
            assert_eq!(Pcp::new(pcp).is_ok(), pcp <= 7, "{pcp}");
        }
    }

    #[test]
    fn pcp_ordering_matches_priority() {
        assert!(Pcp::HIGHEST > Pcp::LOWEST);
        assert_eq!(Pcp::default(), Pcp::LOWEST);
        assert_eq!(Pcp::HIGHEST.to_string(), "pcp7");
    }
}
