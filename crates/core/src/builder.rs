//! The TSN-Builder façade: requirements in, customized switch out
//! (Fig. 1).
//!
//! ```text
//! AppRequirements ──derive──▶ Customization ──synthesize──▶ simulated network
//!                                         └──generate_hdl──▶ Verilog bundle
//!                                         └──usage_report──▶ Table III column
//! ```

use crate::derive::{derive_parameters, DeriveOptions, DerivedConfig};
use crate::requirements::AppRequirements;
use tsn_hdl::templates::HdlBundle;
use tsn_resource::{AllocationPolicy, UsageReport};
use tsn_sim::network::{Network, SimConfig, SyncSetup};
use tsn_types::{SimDuration, TsnResult};

/// The entry point of the library.
///
/// # Example
///
/// ```
/// use tsn_builder::{TsnBuilder, DeriveOptions};
/// use tsn_builder::workloads;
/// use tsn_topology::presets;
/// use tsn_types::SimDuration;
///
/// let topo = presets::ring(6, 3)?;
/// let flows = workloads::iec60802_ts_flows(&topo, 64, 7)?;
/// let customization = TsnBuilder::new(topo, flows, SimDuration::from_nanos(50))?
///     .derive(&DeriveOptions::paper())?;
/// // A Table III-style column for this scenario:
/// let report = customization.usage_report(Default::default());
/// assert!(report.total_kb() < 10_818.0);
/// // And the synthesis stage still emits Verilog:
/// let hdl = customization.generate_hdl()?;
/// assert!(hdl.file("tsn_switch_top.v").is_some());
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TsnBuilder {
    requirements: AppRequirements,
}

impl TsnBuilder {
    /// Starts a customization from a topology, a flow set and the
    /// required sync precision.
    ///
    /// # Errors
    ///
    /// Propagates [`AppRequirements::new`] validation.
    pub fn new(
        topology: tsn_topology::Topology,
        flows: tsn_types::FlowSet,
        sync_precision: SimDuration,
    ) -> TsnResult<Self> {
        Ok(TsnBuilder {
            requirements: AppRequirements::new(topology, flows, sync_precision)?,
        })
    }

    /// The requirements being customized.
    #[must_use]
    pub fn requirements(&self) -> &AppRequirements {
        &self.requirements
    }

    /// Runs the derivation pipeline (Section III.C) and returns the
    /// complete customization.
    ///
    /// # Errors
    ///
    /// Propagates CQF/ITP/parameter errors.
    pub fn derive(self, options: &DeriveOptions) -> TsnResult<Customization> {
        let derived = derive_parameters(&self.requirements, options)?;
        Ok(Customization {
            requirements: self.requirements,
            derived,
        })
    }
}

/// A finished customization: the derived parameters bound to their
/// scenario, ready for synthesis.
#[derive(Debug, Clone)]
pub struct Customization {
    requirements: AppRequirements,
    derived: DerivedConfig,
}

impl Customization {
    /// The derivation output (resources, CQF plan, ITP plan, port
    /// analysis).
    #[must_use]
    pub fn derived(&self) -> &DerivedConfig {
        &self.derived
    }

    /// The scenario.
    #[must_use]
    pub fn requirements(&self) -> &AppRequirements {
        &self.requirements
    }

    /// The Table III-style BRAM breakdown of this customization.
    #[must_use]
    pub fn usage_report(&self, policy: AllocationPolicy) -> UsageReport {
        UsageReport::of(&self.derived.resources, policy)
    }

    /// BRAM savings versus the BCM53154 commercial baseline, in percent.
    #[must_use]
    pub fn savings_vs_cots(&self, policy: AllocationPolicy) -> f64 {
        let custom = self.usage_report(policy);
        let cots = UsageReport::of(&tsn_resource::baseline::bcm53154(), policy);
        custom.reduction_vs(&cots)
    }

    /// Synthesizes the scenario into a runnable simulated network with
    /// the derived resources, slot, injection offsets and gate schedule
    /// ([`DerivedConfig::template`] over the paper's defaults).
    ///
    /// # Errors
    ///
    /// Propagates network-assembly errors (they indicate a derivation
    /// bug: the derived resources must always fit their own scenario).
    pub fn synthesize_network(&self, duration: SimDuration, sync: SyncSetup) -> TsnResult<Network> {
        let base = SimConfig {
            duration,
            sync,
            ..SimConfig::paper_defaults()
        };
        self.derived
            .template(&self.requirements, base)?
            .instantiate()
    }

    /// Emits the per-switch Verilog bundle (the synthesis stage of
    /// Fig. 1).
    ///
    /// # Errors
    ///
    /// Propagates HDL validation errors.
    pub fn generate_hdl(&self) -> TsnResult<HdlBundle> {
        tsn_hdl::templates::generate(&self.derived.resources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use tsn_topology::presets;

    fn customization() -> Customization {
        let topo = presets::ring(6, 3).expect("builds");
        let flows = workloads::iec60802_ts_flows(&topo, 32, 42).expect("workload builds");
        TsnBuilder::new(topo, flows, SimDuration::from_nanos(50))
            .expect("valid requirements")
            .derive(&DeriveOptions::paper())
            .expect("derivation succeeds")
    }

    #[test]
    fn end_to_end_derive_report_hdl() {
        let c = customization();
        let report = c.usage_report(AllocationPolicy::PaperAccounting);
        assert_eq!(report.total_kb(), 2106.0, "ring column of Table III");
        assert!((c.savings_vs_cots(AllocationPolicy::PaperAccounting) - 80.53).abs() < 0.01);
        let hdl = c.generate_hdl().expect("emits verilog");
        assert_eq!(hdl.files().len(), 9, "eight modules plus the testbench");
    }

    #[test]
    fn synthesized_network_runs_losslessly() {
        let c = customization();
        let report = c
            .synthesize_network(SimDuration::from_millis(40), SyncSetup::Perfect)
            .expect("network builds")
            .run();
        assert_eq!(report.ts_lost(), 0);
        assert!(report.ts_injected() > 0);
        assert!(
            report.max_queue_high_water <= c.derived().resources.queue_depth() as usize,
            "derived depth must cover the observed occupancy"
        );
    }
}
