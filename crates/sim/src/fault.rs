//! Deterministic, seeded fault injection.
//!
//! A TSN switch earns its keep when the network is *not* healthy: links
//! flap, wires corrupt bits, oscillators drift and sync messages vanish.
//! This module models those regimes so experiments can plot "QoS vs.
//! fault intensity" curves instead of only ever simulating sunny days.
//!
//! Three fault families, all driven from one [`FaultConfig`] seed so any
//! run is exactly reproducible (and independent of the event-queue
//! backend and of the sweep worker count):
//!
//! 1. **Link availability** — scheduled outages ([`LinkOutage`]) and
//!    random flapping ([`LinkFlap`]). When a link dies, frames being
//!    serialized on it are lost, and every flow is re-routed around the
//!    dead wires via [`tsn_topology::Topology::route_avoiding`]; when it
//!    recovers, flows fall back to their primary paths.
//! 2. **Wire quality** — per-link frame-loss and bit-corruption
//!    probabilities ([`LinkFaultProfile`]). Corrupted frames are *not*
//!    silently delivered: the ingress filter's FCS check discards them
//!    (switch pipeline) or the receiving NIC drops them (host edge).
//! 3. **Clock health** — a drift multiplier on every oscillator plus
//!    gPTP message loss and relay jitter (holdover behaviour comes from
//!    `tsn_switch::time_sync::SyncFaultProfile`).
//!
//! Consequences are surfaced in `SimReport::degradation` (a
//! `DegradationReport`): deadline misses split by cause, frames lost to
//! faults vs. capacity, reroute counts and the sync-offset high-water
//! mark.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use tsn_topology::{LinkId, Topology};
use tsn_types::rng::SplitMix64;
use tsn_types::{FlowId, SimDuration, SimTime};

/// A scheduled hard outage: the link is down in `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkOutage {
    /// The link that fails.
    pub link: LinkId,
    /// When it goes down.
    pub from: SimTime,
    /// When it comes back.
    pub until: SimTime,
}

/// A randomly flapping link: starting at `first_down`, the link
/// alternates down/up phases whose lengths are drawn uniformly from
/// `[mean/2, 3·mean/2]` using the fault seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkFlap {
    /// The link that flaps.
    pub link: LinkId,
    /// First failure instant.
    pub first_down: SimTime,
    /// Mean length of a down phase.
    pub mean_down: SimDuration,
    /// Mean length of an up phase between failures.
    pub mean_up: SimDuration,
}

/// Stochastic wire quality of one link (or the global default).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaultProfile {
    /// Probability that a transmitted frame vanishes entirely.
    pub loss_prob: f64,
    /// Probability that a transmitted frame arrives with flipped bits
    /// (its FCS no longer verifies, so receivers must discard it).
    pub corrupt_prob: f64,
}

/// Hashes the probabilities by their bits: a digest input, not a set key.
impl Hash for LinkFaultProfile {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.loss_prob.to_bits().hash(state);
        self.corrupt_prob.to_bits().hash(state);
    }
}

impl LinkFaultProfile {
    /// `true` when this profile perturbs nothing.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.loss_prob <= 0.0 && self.corrupt_prob <= 0.0
    }
}

/// Complete fault-injection configuration for one simulation run.
///
/// The default ([`FaultConfig::none`]) injects nothing and adds zero
/// work — and zero PRNG draws — to the simulation, so a fault-free run
/// is byte-identical to one on a build without this module.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for every stochastic decision (flap phases, frame loss,
    /// corruption, sync-message loss).
    pub seed: u64,
    /// Scheduled outages.
    pub outages: Vec<LinkOutage>,
    /// Randomly flapping links.
    pub flaps: Vec<LinkFlap>,
    /// Wire quality applied to every link not listed in
    /// [`per_link_wire`](FaultConfig::per_link_wire).
    pub wire: LinkFaultProfile,
    /// Per-link wire-quality overrides.
    pub per_link_wire: Vec<(LinkId, LinkFaultProfile)>,
    /// Multiplier on every oscillator's drift rate and initial offset
    /// (1.0 = the standard clock population).
    pub drift_scale: f64,
    /// Probability that one hop's gPTP sync message is lost — the rest
    /// of the chain holds over on its last servo state that round.
    pub sync_loss_prob: f64,
    /// Extra uniform ±jitter (ns) on every relayed sync timestamp.
    pub sync_jitter_ns: f64,
}

impl FaultConfig {
    /// The no-fault configuration.
    #[must_use]
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            outages: Vec::new(),
            flaps: Vec::new(),
            wire: LinkFaultProfile::default(),
            per_link_wire: Vec::new(),
            drift_scale: 1.0,
            sync_loss_prob: 0.0,
            sync_jitter_ns: 0.0,
        }
    }

    /// `true` when any fault source is armed.
    #[must_use]
    pub fn enabled(&self) -> bool {
        !self.outages.is_empty()
            || !self.flaps.is_empty()
            || !self.wire.is_none()
            || self.per_link_wire.iter().any(|(_, p)| !p.is_none())
            || self.drift_scale != 1.0
            || self.sync_loss_prob > 0.0
            || self.sync_jitter_ns > 0.0
    }
}

/// Hashes every field (the destructuring makes a new one a compile
/// error here), floats by their bits: a digest input, not a set key.
impl Hash for FaultConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let FaultConfig {
            seed,
            outages,
            flaps,
            wire,
            per_link_wire,
            drift_scale,
            sync_loss_prob,
            sync_jitter_ns,
        } = self;
        (seed, outages, flaps, wire, per_link_wire).hash(state);
        for float in [drift_scale, sync_loss_prob, sync_jitter_ns] {
            float.to_bits().hash(state);
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// What the wire did to one transmitted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireEffect {
    /// Delivered intact.
    Intact,
    /// Vanished entirely.
    Lost,
    /// Delivered with a broken FCS.
    Corrupted,
}

/// Per-flow degradation accounting, keyed by delivery-time route state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowDegradation {
    /// Deadline misses while the flow was detoured off its primary path.
    pub misses_on_detour: u64,
    /// Deadline misses while the flow ran its primary path (capacity /
    /// congestion effects, not routing).
    pub misses_on_primary: u64,
    /// Frames of this flow destroyed by faults (dead wire, loss,
    /// corruption caught by an FCS check).
    pub lost_to_faults: u64,
}

/// Runtime state of the fault subsystem for one simulation.
///
/// `Clone` lets a template's cached instantiation image hand every
/// capacity-patched instantiation its own engine, already past the
/// timeline PRNG draws.
#[derive(Debug, Clone)]
pub(crate) struct FaultEngine {
    config: FaultConfig,
    rng: SplitMix64,
    /// Down-counter per link (overlapping outages nest).
    down: Vec<u32>,
    /// Resolved wire profile per link.
    wire: Vec<LinkFaultProfile>,
    /// Per-flow primary-path links, captured at build.
    primary: BTreeMap<FlowId, Vec<LinkId>>,
    /// Per-flow currently-programmed path links.
    current: BTreeMap<FlowId, Vec<LinkId>>,
    /// Flows currently off their primary path (or blackholed).
    detoured: BTreeMap<FlowId, bool>,
    per_flow: BTreeMap<FlowId, FlowDegradation>,
    pub(crate) link_down_events: u64,
    pub(crate) link_up_events: u64,
    pub(crate) frames_lost_on_dead_links: u64,
    pub(crate) frames_lost_to_wire: u64,
    pub(crate) frames_corrupted: u64,
    pub(crate) fcs_drops_host: u64,
    pub(crate) reroutes: u64,
    pub(crate) reroute_failures: u64,
}

impl FaultEngine {
    pub(crate) fn new(config: FaultConfig, topology: &Topology) -> Self {
        let n_links = topology.links().len();
        let mut wire = vec![config.wire; n_links];
        for (link, profile) in &config.per_link_wire {
            if let Some(slot) = wire.get_mut(link.index() as usize) {
                *slot = *profile;
            }
        }
        let rng = SplitMix64::seed_from_u64(config.seed);
        FaultEngine {
            config,
            rng,
            down: vec![0; n_links],
            wire,
            primary: BTreeMap::new(),
            current: BTreeMap::new(),
            detoured: BTreeMap::new(),
            per_flow: BTreeMap::new(),
            link_down_events: 0,
            link_up_events: 0,
            frames_lost_on_dead_links: 0,
            frames_lost_to_wire: 0,
            frames_corrupted: 0,
            fcs_drops_host: 0,
            reroutes: 0,
            reroute_failures: 0,
        }
    }

    /// The link up/down timeline as `(instant, link, goes_down)` tuples,
    /// generated once at build from the seed (so it is independent of
    /// anything that happens during the run).
    pub(crate) fn timeline(&mut self, horizon: SimTime) -> Vec<(SimTime, LinkId, bool)> {
        let mut events = Vec::new();
        for o in &self.config.outages {
            if o.from >= horizon || o.until <= o.from {
                continue;
            }
            events.push((o.from, o.link, true));
            if o.until < horizon {
                events.push((o.until, o.link, false));
            }
        }
        let flaps = self.config.flaps.clone();
        for f in &flaps {
            let mut t = f.first_down;
            loop {
                if t >= horizon {
                    break;
                }
                events.push((t, f.link, true));
                t += self.phase(f.mean_down);
                if t >= horizon {
                    break;
                }
                events.push((t, f.link, false));
                t += self.phase(f.mean_up);
            }
        }
        events
    }

    /// One flap phase length: uniform in `[mean/2, 3·mean/2]`.
    fn phase(&mut self, mean: SimDuration) -> SimDuration {
        let ns = mean.as_nanos().max(1);
        SimDuration::from_nanos(ns / 2 + self.rng.gen_range(ns.max(1)))
    }

    pub(crate) fn is_down(&self, link: LinkId) -> bool {
        self.down.get(link.index() as usize).is_some_and(|&c| c > 0)
    }

    /// Applies one up/down transition. Returns `true` when the link's
    /// effective state actually changed (overlapping outages nest).
    pub(crate) fn transition(&mut self, link: LinkId, goes_down: bool) -> bool {
        let Some(count) = self.down.get_mut(link.index() as usize) else {
            return false;
        };
        let was_down = *count > 0;
        if goes_down {
            self.link_down_events += 1;
            *count += 1;
        } else {
            self.link_up_events += 1;
            *count = count.saturating_sub(1);
        }
        (*count > 0) != was_down
    }

    /// Draws the wire effect for one frame leaving on `link`. Zero PRNG
    /// draws for pristine links, so runs stay comparable when a fault
    /// grid only varies some links.
    pub(crate) fn wire_effect(&mut self, link: LinkId) -> WireEffect {
        let Some(profile) = self.wire.get(link.index() as usize).copied() else {
            return WireEffect::Intact;
        };
        if profile.loss_prob > 0.0 && self.rng.next_f64() < profile.loss_prob {
            return WireEffect::Lost;
        }
        if profile.corrupt_prob > 0.0 && self.rng.next_f64() < profile.corrupt_prob {
            return WireEffect::Corrupted;
        }
        WireEffect::Intact
    }

    /// Records the primary (fault-free) path of a flow at build time.
    pub(crate) fn set_primary(&mut self, flow: FlowId, links: Vec<LinkId>) {
        self.current.insert(flow, links.clone());
        self.primary.insert(flow, links);
        self.detoured.insert(flow, false);
    }

    /// Notes the links a flow is now programmed along. Returns `true`
    /// when the path actually changed (a reroute worth counting).
    pub(crate) fn set_current(&mut self, flow: FlowId, links: Vec<LinkId>) -> bool {
        let changed = self.current.get(&flow) != Some(&links);
        let primary = self.primary.get(&flow);
        self.detoured.insert(flow, primary != Some(&links));
        self.current.insert(flow, links);
        if changed {
            self.reroutes += 1;
        }
        changed
    }

    /// Marks a flow unroutable (every path crosses a dead link).
    pub(crate) fn note_unroutable(&mut self, flow: FlowId) {
        self.reroute_failures += 1;
        self.detoured.insert(flow, true);
    }

    pub(crate) fn is_detoured(&self, flow: FlowId) -> bool {
        self.detoured.get(&flow).copied().unwrap_or(false)
    }

    /// Counts one fault-destroyed frame against its flow.
    pub(crate) fn note_flow_loss(&mut self, flow: FlowId) {
        self.per_flow.entry(flow).or_default().lost_to_faults += 1;
    }

    /// Counts one deadline miss, attributed by the flow's route state at
    /// delivery time.
    pub(crate) fn note_miss(&mut self, flow: FlowId) {
        let detoured = self.is_detoured(flow);
        let entry = self.per_flow.entry(flow).or_default();
        if detoured {
            entry.misses_on_detour += 1;
        } else {
            entry.misses_on_primary += 1;
        }
    }

    /// Per-flow accounting, sorted by flow id.
    pub(crate) fn per_flow(&self) -> Vec<(FlowId, FlowDegradation)> {
        self.per_flow.iter().map(|(&f, &d)| (f, d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_config_is_disabled() {
        assert!(!FaultConfig::none().enabled());
        let mut c = FaultConfig::none();
        c.wire.loss_prob = 0.01;
        assert!(c.enabled());
        let mut c = FaultConfig::none();
        c.drift_scale = 3.0;
        assert!(c.enabled());
    }

    fn topo2() -> Topology {
        let mut t = Topology::new();
        let a = t.add_switch("a");
        let b = t.add_switch("b");
        t.connect(a, b, tsn_types::DataRate::gbps(1)).expect("link");
        t
    }

    #[test]
    fn transitions_nest_for_overlapping_outages() {
        let mut e = FaultEngine::new(FaultConfig::none(), &topo2());
        let l = LinkId::new(0);
        assert!(e.transition(l, true), "first down changes state");
        assert!(!e.transition(l, true), "nested down is a no-op");
        assert!(!e.transition(l, false), "first up still nested");
        assert!(e.transition(l, false), "last up restores the link");
        assert!(!e.is_down(l));
        assert_eq!(e.link_down_events, 2);
        assert_eq!(e.link_up_events, 2);
    }

    #[test]
    fn timeline_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut c = FaultConfig::none();
            c.seed = seed;
            c.flaps.push(LinkFlap {
                link: LinkId::new(0),
                first_down: SimTime::from_millis(1),
                mean_down: SimDuration::from_millis(2),
                mean_up: SimDuration::from_millis(5),
            });
            let mut e = FaultEngine::new(c, &topo2());
            e.timeline(SimTime::from_millis(100))
        };
        assert_eq!(mk(1), mk(1));
        assert_ne!(mk(1), mk(2));
        // Phases alternate down/up starting down.
        let tl = mk(3);
        assert!(tl.len() >= 2);
        assert!(tl[0].2 && !tl[1].2);
        assert!(tl.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn wire_effect_draws_nothing_on_pristine_links() {
        let mut e = FaultEngine::new(FaultConfig::none(), &topo2());
        let before = format!("{:?}", e.rng);
        assert_eq!(e.wire_effect(LinkId::new(0)), WireEffect::Intact);
        assert_eq!(before, format!("{:?}", e.rng), "no PRNG state consumed");
    }

    #[test]
    fn wire_effect_respects_per_link_overrides() {
        let mut c = FaultConfig::none();
        c.per_link_wire.push((
            LinkId::new(0),
            LinkFaultProfile {
                loss_prob: 1.0,
                corrupt_prob: 0.0,
            },
        ));
        let mut e = FaultEngine::new(c, &topo2());
        assert_eq!(e.wire_effect(LinkId::new(0)), WireEffect::Lost);
    }

    #[test]
    fn reroute_bookkeeping_tracks_detours() {
        let mut e = FaultEngine::new(FaultConfig::none(), &topo2());
        let f = FlowId::new(1);
        let primary = vec![LinkId::new(0)];
        let detour = vec![LinkId::new(1), LinkId::new(2)];
        e.set_primary(f, primary.clone());
        assert!(!e.is_detoured(f));
        assert!(e.set_current(f, detour.clone()));
        assert!(e.is_detoured(f));
        assert!(!e.set_current(f, detour), "same path, no new reroute");
        assert!(e.set_current(f, primary));
        assert!(!e.is_detoured(f));
        assert_eq!(e.reroutes, 2);
        e.note_miss(f);
        e.note_unroutable(f);
        e.note_miss(f);
        let per_flow = e.per_flow();
        assert_eq!(per_flow.len(), 1);
        assert_eq!(per_flow[0].1.misses_on_primary, 1);
        assert_eq!(per_flow[0].1.misses_on_detour, 1);
    }
}
