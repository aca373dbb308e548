//! The shared random case the cross-layer oracles consume: a topology
//! preset, an IEC 60802-style flow set and simulation knobs, all encoded
//! as a handful of integers so one case shrinks component-wise and
//! round-trips through the corpus.

use tsn_builder::workloads::{self, FRAME_SIZES};
use tsn_sim::network::{SimConfig, SyncSetup};
use tsn_topology::presets::Preset;
use tsn_topology::Topology;
use tsn_types::{FlowSet, SimDuration, SplitMix64, TsnError, TsnResult};

use crate::corpus::{field_u64, CaseCodec};
use crate::shrink::{shrink_u64, Shrink};

/// Largest switch count generated: keeps every hop count feasible under
/// the paper's 65 µs slot even for 1 ms deadlines (`L_max = (hop+1)·slot`).
pub const MAX_SWITCHES: u64 = 6;
/// Largest generated flow count.
pub const MAX_FLOWS: u64 = 24;
/// Generated simulation window, in milliseconds.
pub const DURATION_MS: (u64, u64) = (4, 12);

/// Smallest `switches` value a case of `topo` takes: the preset's own
/// floor, and 2 for the two hosts every case has. [`Preset::Linear`]
/// is the shrinking floor.
fn min_switches(topo: Preset) -> u64 {
    match topo {
        Preset::Linear | Preset::Star => 2,
        Preset::Ring => 3,
    }
}

/// One random sweep point: everything the oracles need to rebuild a
/// topology, a flow set and a simulation configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioCase {
    /// Preset family.
    pub topo: Preset,
    /// Switch count (children count for [`Preset::Star`]).
    pub switches: u64,
    /// Host count, `2..=switches`.
    pub hosts: u64,
    /// TS flow count.
    pub flows: u64,
    /// Index into [`FRAME_SIZES`].
    pub frame_idx: u64,
    /// Seed of the workload generator (deadline draws).
    pub wl_seed: u64,
    /// Injection window in milliseconds.
    pub duration_ms: u64,
    /// Which resource fields the metamorphic oracle inflates
    /// (bit per field; 0 = none).
    pub inflate_mask: u64,
}

impl ScenarioCase {
    /// Draws a random case.
    #[must_use]
    pub fn generate(rng: &mut SplitMix64) -> Self {
        let topo = match rng.gen_range(3) {
            0 => Preset::Linear,
            1 => Preset::Ring,
            _ => Preset::Star,
        };
        let case = ScenarioCase {
            topo,
            switches: rng.gen_range_in(2, MAX_SWITCHES + 1),
            hosts: rng.gen_range_in(2, MAX_SWITCHES + 1),
            flows: rng.gen_range_in(1, MAX_FLOWS + 1),
            frame_idx: rng.gen_range(FRAME_SIZES.len() as u64),
            wl_seed: rng.next_u64(),
            duration_ms: rng.gen_range_in(DURATION_MS.0, DURATION_MS.1 + 1),
            inflate_mask: rng.gen_range(64),
        };
        case.normalized()
    }

    /// Clamps every field into its valid domain (presets need
    /// `hosts <= switches`, rings need 3 switches, …). Idempotent;
    /// applied after generation and after every shrink step.
    #[must_use]
    pub fn normalized(mut self) -> Self {
        self.switches = self.switches.clamp(min_switches(self.topo), MAX_SWITCHES);
        self.hosts = self.hosts.clamp(2, self.switches);
        self.flows = self.flows.clamp(1, MAX_FLOWS);
        self.frame_idx = self.frame_idx.min(FRAME_SIZES.len() as u64 - 1);
        self.duration_ms = self.duration_ms.clamp(DURATION_MS.0, DURATION_MS.1);
        self.inflate_mask &= 0x3f;
        self
    }

    /// The case's frame size in bytes.
    #[must_use]
    pub fn frame_bytes(&self) -> u32 {
        FRAME_SIZES[self.frame_idx as usize]
    }

    /// Builds the case's preset.
    ///
    /// # Errors
    ///
    /// Propagates preset validation (none for normalized cases).
    pub fn topology(&self) -> TsnResult<Topology> {
        self.topo.build(self.switches as usize, self.hosts as usize)
    }

    /// Builds the IEC 60802-style TS flow set for `topology`.
    ///
    /// # Errors
    ///
    /// Propagates workload validation.
    pub fn flow_set(&self, topology: &Topology) -> TsnResult<FlowSet> {
        workloads::ts_flows_sized(
            topology,
            self.flows as u32,
            self.frame_bytes(),
            self.wl_seed,
        )
    }

    /// The simulation configuration every oracle starts from: a short
    /// perfectly-synchronized run (fault and sync effects are opted into
    /// per oracle).
    #[must_use]
    pub fn base_config(&self) -> SimConfig {
        let mut config = SimConfig::paper_defaults();
        config.duration = SimDuration::from_millis(self.duration_ms);
        config.drain = SimDuration::from_millis(4);
        config.sync = SyncSetup::Perfect;
        config
    }
}

impl Shrink for ScenarioCase {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let mut push = |candidate: ScenarioCase| {
            let candidate = candidate.normalized();
            if candidate != *self && !out.contains(&candidate) {
                out.push(candidate);
            }
        };
        if self.topo != Preset::Linear {
            let mut c = self.clone();
            c.topo = Preset::Linear;
            push(c);
        }
        for s in shrink_u64(self.switches, min_switches(Preset::Linear)) {
            let mut c = self.clone();
            c.switches = s;
            push(c);
        }
        for h in shrink_u64(self.hosts, 2) {
            let mut c = self.clone();
            c.hosts = h;
            push(c);
        }
        for f in shrink_u64(self.flows, 1) {
            let mut c = self.clone();
            c.flows = f;
            push(c);
        }
        for i in shrink_u64(self.frame_idx, 0) {
            let mut c = self.clone();
            c.frame_idx = i;
            push(c);
        }
        for s in shrink_u64(self.wl_seed, 0) {
            let mut c = self.clone();
            c.wl_seed = s;
            push(c);
        }
        for d in shrink_u64(self.duration_ms, DURATION_MS.0) {
            let mut c = self.clone();
            c.duration_ms = d;
            push(c);
        }
        for m in shrink_u64(self.inflate_mask, 0) {
            let mut c = self.clone();
            c.inflate_mask = m;
            push(c);
        }
        out
    }
}

impl CaseCodec for ScenarioCase {
    fn to_fields(&self) -> Vec<(String, String)> {
        vec![
            ("topo".to_owned(), self.topo.name().to_owned()),
            ("switches".to_owned(), self.switches.to_string()),
            ("hosts".to_owned(), self.hosts.to_string()),
            ("flows".to_owned(), self.flows.to_string()),
            ("frame_idx".to_owned(), self.frame_idx.to_string()),
            ("wl_seed".to_owned(), format!("0x{:x}", self.wl_seed)),
            ("duration_ms".to_owned(), self.duration_ms.to_string()),
            ("inflate_mask".to_owned(), self.inflate_mask.to_string()),
        ]
    }

    fn from_fields(fields: &[(String, String)]) -> Result<Self, String> {
        let topo_raw = fields
            .iter()
            .find(|(k, _)| k == "topo")
            .map(|(_, v)| v.as_str())
            .ok_or("missing field \"topo\"")?;
        let case = ScenarioCase {
            topo: topo_raw.parse().map_err(|e: TsnError| e.to_string())?,
            switches: field_u64(fields, "switches")?,
            hosts: field_u64(fields, "hosts")?,
            flows: field_u64(fields, "flows")?,
            frame_idx: field_u64(fields, "frame_idx")?,
            wl_seed: field_u64(fields, "wl_seed")?,
            duration_ms: field_u64(fields, "duration_ms")?,
            inflate_mask: field_u64(fields, "inflate_mask")?,
        };
        if case != case.clone().normalized() {
            return Err(format!("corpus case is not normalized: {case:?}"));
        }
        Ok(case)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_build_real_inputs() {
        let mut rng = SplitMix64::seed_from_u64(42);
        for _ in 0..64 {
            let case = ScenarioCase::generate(&mut rng);
            assert_eq!(case, case.clone().normalized(), "generation normalizes");
            let topo = case.topology().expect("preset builds");
            assert_eq!(topo.hosts().len() as u64, case.hosts);
            let flows = case.flow_set(&topo).expect("workload builds");
            assert_eq!(flows.ts_count() as u64, case.flows);
        }
    }

    #[test]
    fn shrink_candidates_stay_valid_and_smaller() {
        let mut rng = SplitMix64::seed_from_u64(7);
        for _ in 0..32 {
            let case = ScenarioCase::generate(&mut rng);
            for candidate in case.shrink_candidates() {
                assert_ne!(candidate, case);
                assert_eq!(candidate, candidate.clone().normalized());
                candidate.topology().expect("candidate preset builds");
            }
        }
    }

    #[test]
    fn greedy_shrink_terminates_at_the_floor() {
        // A failure that any case triggers must shrink to the global
        // floor: linear, 2 switches, 2 hosts, 1 flow.
        let mut rng = SplitMix64::seed_from_u64(99);
        let case = ScenarioCase::generate(&mut rng);
        let shrunk = crate::shrink::shrink_to_minimal(case, "always".into(), 10_000, |_| {
            Some("always".into())
        });
        let c = shrunk.case;
        assert_eq!(c.topo, Preset::Linear);
        assert_eq!(c.switches, 2);
        assert_eq!(c.hosts, 2);
        assert_eq!(c.flows, 1);
        assert_eq!(c.frame_idx, 0);
        assert_eq!(c.wl_seed, 0);
        assert_eq!(c.duration_ms, DURATION_MS.0);
        assert_eq!(c.inflate_mask, 0);
        assert!(c.shrink_candidates().is_empty(), "floor has no candidates");
    }

    #[test]
    fn cases_round_trip_through_the_codec() {
        let mut rng = SplitMix64::seed_from_u64(5);
        for _ in 0..16 {
            let case = ScenarioCase::generate(&mut rng);
            let back = ScenarioCase::from_fields(&case.to_fields()).expect("decodes");
            assert_eq!(back, case);
        }
        assert!(ScenarioCase::from_fields(&[("topo".to_owned(), "moebius".to_owned())]).is_err());
    }
}
