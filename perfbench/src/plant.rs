//! `plant-100k`: what-if answers on a resident 100k-flow plant.
//!
//! Set-up builds `large_plant(100_000)` and its `NetworkTemplate`, then
//! warms both reconfigure paths. Each op applies the next delta of a
//! seeded cycle through `NetworkTemplate::reconfigure` and runs one plant
//! period with `Network::run`. The cycle repeats two capacity deltas and
//! one re-plan:
//!
//! - resources-only deltas that grow the buffer pool and, on some
//!   deltas, double the classification or unicast table. The template
//!   patches these capacities into its cached image (the patch path).
//!   Queue depth is left alone: a depth change cannot be patched and
//!   would silently take the replay path.
//! - offsets deltas that rotate every flow's ITP slot by the same
//!   seeded amount (the install-replay path).
//!
//! Capacities only grow, and a uniform rotation keeps every slot's load,
//! so every delta stays lossless. Capacity questions are the common case
//! (the sweep and DSE inner loop). The 2:1 mix also keeps the median and
//! the 75th percentile each inside one path's mode of the op times: a
//! replay-built network runs ~15% slower than a patched one, and a 1:1
//! mix would put the median in the gap between the modes.

use std::sync::Arc;

use tsn_builder::plant::{large_plant, PLANT_PERIOD};
use tsn_resource::CostKey;
use tsn_sim::network::{ConfigDelta, Network, NetworkTemplate, SimConfig};
use tsn_types::{FlowMap, SimDuration, SplitMix64};

use crate::{
    check_repeat, measure, paper_anchor, peak_rss_mib, ratio, setup_repeated, sim_counters, timed,
    Layer, RunConfig, RunSummary, Tracer, WorkloadRun,
};

/// Flows in the benchmarked plant.
pub const PLANT_FLOWS: u32 = 100_000;
/// Distinct deltas in the cycle (two thirds resources, one third
/// offsets).
pub const DISTINCT_DELTAS: usize = 9;
/// Ops per resources, resources, offsets unit of the cycle.
const UNIT: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Which reconfigure path a delta exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Capacity knobs only: patched into the cached image.
    Resources,
    /// A new ITP plan: install replay.
    Offsets,
}

/// One what-if question.
#[derive(Debug, Clone)]
pub struct PlantDelta {
    /// Which path it takes.
    pub kind: DeltaKind,
    /// The change itself.
    pub delta: ConfigDelta,
}

/// The seeded delta cycle for a plant with base `config` and `offsets`:
/// every third position rotates the offsets, the others are
/// resources-only.
///
/// # Errors
///
/// When a grown capacity fails resource validation.
pub fn plant_deltas(
    seed: u64,
    config: &SimConfig,
    offsets: &FlowMap<SimDuration>,
    count: usize,
) -> Result<Vec<PlantDelta>, String> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let slot = config.slot.as_nanos();
    let spread = PLANT_PERIOD.as_nanos() / slot;
    let base = &config.resources;
    (0..count)
        .map(|i| {
            if i % UNIT != UNIT - 1 {
                let mut resources = base.clone();
                let buffers = base.buffer_num() + 8 * (1 + rng.gen_range(16) as u32);
                resources
                    .set_buffers(buffers, base.port_num())
                    .map_err(|e| e.to_string())?;
                match rng.gen_range(3) {
                    0 => {
                        resources
                            .set_class_tbl(base.class_size() * 2)
                            .map_err(|e| e.to_string())?;
                    }
                    1 => {
                        resources
                            .set_switch_tbl(base.unicast_size() * 2, base.multicast_size())
                            .map_err(|e| e.to_string())?;
                    }
                    _ => {}
                }
                Ok(PlantDelta {
                    kind: DeltaKind::Resources,
                    delta: ConfigDelta::resources(resources),
                })
            } else {
                let shift = 1 + rng.gen_range(spread - 1);
                let rotated = offsets
                    .iter()
                    .map(|(flow, offset)| {
                        let slot_index = (offset.as_nanos() / slot + shift) % spread;
                        (flow, SimDuration::from_nanos(slot_index * slot))
                    })
                    .collect();
                Ok(PlantDelta {
                    kind: DeltaKind::Offsets,
                    delta: ConfigDelta {
                        offsets: Some(rotated),
                        ..ConfigDelta::default()
                    },
                })
            }
        })
        .collect()
}

/// The resident template, the delta cycle and each delta's first
/// summary.
struct Plant {
    template: Arc<NetworkTemplate>,
    /// The base ITP plan, for from-scratch builds of resources deltas.
    offsets: FlowMap<SimDuration>,
    deltas: Vec<PlantDelta>,
    summaries: Vec<Option<RunSummary>>,
    /// Route-tree cache (hits, misses) while the template was built.
    route_cache: (u64, u64),
}

impl Plant {
    fn setup(seed: u64, flows: u32, tracer: &mut Tracer) -> Result<Self, String> {
        let plant = tracer
            .span("builder.large_plant", Layer::Builder, || large_plant(flows))
            .map_err(|e| e.to_string())?;
        let deltas = plant_deltas(seed, &plant.config, &plant.offsets, DISTINCT_DELTAS)?;
        let template = tracer
            .span("sim.template_new", Layer::Sim, || {
                NetworkTemplate::new(plant.topology, plant.flows, &plant.offsets, plant.config)
            })
            .map_err(|e| e.to_string())?;
        let mut state = Plant {
            template: Arc::new(template),
            offsets: plant.offsets,
            summaries: vec![None; deltas.len()],
            deltas,
            route_cache: (0, 0),
        };
        // Warm-up: one unit of the cycle builds the patch path's cached
        // image and faults in the run's working set.
        for i in 0..UNIT {
            state.op(i, tracer).1?;
        }
        Ok(state)
    }

    /// Applies delta `i` and runs the period; checks the answer.
    fn op(&mut self, i: usize, tracer: &mut Tracer) -> (u64, Result<(), String>) {
        let index = i % self.deltas.len();
        let PlantDelta { kind, delta } = &self.deltas[index];
        let span = match kind {
            DeltaKind::Resources => "sim.reconfigure_patch",
            DeltaKind::Offsets => "sim.reconfigure_replay",
        };
        let template = &self.template;
        let (report, ns) = timed(tracer, |t| {
            let network = t.span(span, Layer::Sim, || template.reconfigure(delta))?;
            Ok::<_, tsn_types::TsnError>(t.span("sim.run", Layer::Sim, || network.run()))
        });
        let outcome = match report {
            Err(e) => Err(format!("delta {index}: reconfigure failed: {e}")),
            Ok(report) => {
                let summary = RunSummary::of(&report);
                let cache = report.events.route_cache;
                self.route_cache = (cache.hits, cache.misses);
                drop(report);
                check_lossless(&summary, index).and_then(|()| {
                    check_repeat(
                        summary,
                        &mut self.summaries[index],
                        &format!("delta {index}"),
                    )
                })
            }
        };
        (ns, outcome)
    }
}

fn check_lossless(summary: &RunSummary, index: usize) -> Result<(), String> {
    if summary.ts_lost > 0 || summary.deadline_misses > 0 {
        return Err(format!(
            "delta {index}: {} TS frames lost, {} deadline misses",
            summary.ts_lost, summary.deadline_misses
        ));
    }
    Ok(())
}

/// Runs the workload at `flows` flows (the benchmark uses
/// [`PLANT_FLOWS`]; tests use small plants).
///
/// # Errors
///
/// Set-up failures.
pub fn run(cfg: &RunConfig, flows: u32, tracer: &mut Tracer) -> Result<WorkloadRun, String> {
    let (mut plant, setup_s) =
        setup_repeated(SETUPS, tracer, |t| Plant::setup(cfg.seed, flows, t))?;
    let mut measured = measure(cfg, tracer, UNIT, |i, t| plant.op(i, t));
    let peak_rss_mib = peak_rss_mib();
    // Deltas the loop did not reach still get their summary, so the
    // deterministic metrics always cover the whole cycle.
    for index in 0..plant.deltas.len() {
        if plant.summaries[index].is_none() {
            let outcome = plant.op(index, tracer).1;
            measured.record(outcome);
        }
    }
    let run_checks = vec![
        ("paper anchor", paper_anchor()),
        ("from-scratch resources delta", from_scratch(&plant, 0)),
        ("from-scratch offsets delta", from_scratch(&plant, UNIT - 1)),
    ];

    let summaries: Vec<&RunSummary> = plant.summaries.iter().flatten().collect();
    let (hits, misses) = plant.route_cache;
    let answer_bram36 = plant
        .deltas
        .iter()
        .map(|d| {
            let resources = d
                .delta
                .resources
                .as_ref()
                .unwrap_or(&plant.template.config().resources);
            CostKey::of(resources).bram36_blocks as f64
        })
        .sum::<f64>()
        / plant.deltas.len() as f64;
    let mut layer = vec![
        (
            "builder.plant_generate_ms",
            tracer.mean_ms("builder.large_plant", true),
        ),
        (
            "sim.template_new_ms",
            tracer.mean_ms("sim.template_new", true),
        ),
        (
            "sim.reconfigure_patch_ms",
            tracer.mean_ms("sim.reconfigure_patch", false),
        ),
        (
            "sim.reconfigure_replay_ms",
            tracer.mean_ms("sim.reconfigure_replay", false),
        ),
        (
            "sim.route_cache_hit_rate",
            ratio(hits as f64, (hits + misses) as f64),
        ),
    ];
    layer.extend(sim_counters(&summaries, tracer.mean_ms("sim.run", false)));
    Ok(WorkloadRun {
        setup_s,
        measured,
        tail_quantile: 0.75,
        answers_per_op: 1.0,
        answer_bram36,
        peak_rss_mib,
        run_checks,
        layer,
    })
}

/// Rebuilds delta `index`'s effective config from scratch with
/// `Network::build` and compares its summary with the template path's.
fn from_scratch(plant: &Plant, index: usize) -> Result<(), String> {
    let delta = &plant.deltas[index].delta;
    let mut config = plant.template.config().clone();
    if let Some(resources) = &delta.resources {
        config.resources = resources.clone();
    }
    let offsets = delta.offsets.as_ref().unwrap_or(&plant.offsets);
    let network = Network::build(
        (**plant.template.topology()).clone(),
        (**plant.template.flows()).clone(),
        offsets,
        config,
    )
    .map_err(|e| format!("from-scratch build failed: {e}"))?;
    let summary = RunSummary::of(&network.run());
    match &plant.summaries[index] {
        Some(seen) if *seen == summary => Ok(()),
        seen => Err(format!(
            "delta {index}: template path gave {seen:?}, from-scratch build {summary:?}"
        )),
    }
}
