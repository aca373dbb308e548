//! `SimConfig`'s `Hash` encoding, the identity the scenario planner keys
//! resident templates by: every field reaches the digest, floats by
//! their bits, and the per-switch overrides in `NodeId` order.

use std::collections::{HashMap, HashSet};
use tsn_resource::ResourceConfig;
use tsn_sim::network::{SimConfig, SyncSetup};
use tsn_sim::{LinkFaultProfile, LinkFlap, LinkOutage};
use tsn_topology::LinkId;
use tsn_types::digest::Digest;
use tsn_types::{NodeId, SimDuration, SimTime};

type Mutation = (&'static str, fn(&mut SimConfig));

fn gptp(config: &mut SimConfig) -> (&mut tsn_switch::time_sync::SyncConfig, &mut SimDuration) {
    match &mut config.sync {
        SyncSetup::Gptp { config, warmup } => (config, warmup),
        SyncSetup::Perfect => panic!("paper defaults run gPTP"),
    }
}

#[test]
fn equal_configs_digest_equal() {
    let a = SimConfig::paper_defaults();
    let b = SimConfig::paper_defaults();
    assert_eq!(Digest::of(&a), Digest::of(&b));
    assert_eq!(Digest::of(&a), Digest::of(&a.clone()));
}

#[test]
fn every_field_moves_the_digest() {
    let mutations: [Mutation; 22] = [
        ("slot", |c| c.slot = SimDuration::from_micros(33)),
        ("resources", |c| {
            c.resources.set_class_tbl(7).expect("valid");
        }),
        ("switch_proc_delay", |c| {
            c.switch_proc_delay = SimDuration::from_micros(3);
        }),
        ("duration", |c| c.duration = SimDuration::from_millis(7)),
        ("drain", |c| c.drain = SimDuration::from_millis(7)),
        ("sync setup", |c| c.sync = SyncSetup::Perfect),
        ("sync interval", |c| {
            gptp(c).0.sync_interval = SimDuration::from_millis(31);
        }),
        ("timestamp noise", |c| gptp(c).0.timestamp_noise_ns = 8.5),
        ("sync warmup", |c| *gptp(c).1 = SimDuration::from_secs(1)),
        ("aggregate_switch_tbl", |c| c.aggregate_switch_tbl = true),
        ("per_switch_resources", |c| {
            c.per_switch_resources
                .insert(NodeId::new(0), ResourceConfig::new());
        }),
        ("frame_preemption", |c| c.frame_preemption = true),
        ("fault seed", |c| c.faults.seed = 1),
        ("outages", |c| {
            c.faults.outages.push(LinkOutage {
                link: LinkId::new(0),
                from: SimTime::from_millis(1),
                until: SimTime::from_millis(2),
            });
        }),
        ("flaps", |c| {
            c.faults.flaps.push(LinkFlap {
                link: LinkId::new(0),
                first_down: SimTime::from_millis(1),
                mean_down: SimDuration::from_micros(5),
                mean_up: SimDuration::from_micros(50),
            });
        }),
        ("wire loss", |c| c.faults.wire.loss_prob = 0.01),
        ("wire corruption", |c| c.faults.wire.corrupt_prob = 0.01),
        ("per-link wire", |c| {
            c.faults
                .per_link_wire
                .push((LinkId::new(0), LinkFaultProfile::default()));
        }),
        ("per-link wire loss", |c| {
            let lossy = LinkFaultProfile {
                loss_prob: 0.5,
                corrupt_prob: 0.0,
            };
            c.faults.per_link_wire.push((LinkId::new(0), lossy));
        }),
        ("drift_scale", |c| c.faults.drift_scale = 2.0),
        ("sync_loss_prob", |c| c.faults.sync_loss_prob = 0.1),
        ("sync_jitter_ns", |c| c.faults.sync_jitter_ns = 1.0),
    ];
    let base = SimConfig::paper_defaults();
    let mut seen = HashSet::from([Digest::of(&base)]);
    for (field, mutate) in mutations {
        let mut config = base.clone();
        mutate(&mut config);
        assert!(
            seen.insert(Digest::of(&config)),
            "{field} does not move the digest"
        );
    }
}

#[test]
fn per_switch_overrides_digest_in_node_order() {
    let sized = |n: u32| {
        let mut resources = ResourceConfig::new();
        resources.set_class_tbl(n + 1).expect("valid");
        resources
    };
    let fill = |order: &mut dyn Iterator<Item = u32>| {
        let mut config = SimConfig::paper_defaults();
        config.per_switch_resources = order.map(|n| (NodeId::new(n), sized(n))).collect();
        Digest::of(&config)
    };
    let forward = fill(&mut (0..64));
    assert_eq!(forward, fill(&mut (0..64).rev()));
    assert_eq!(forward, fill(&mut (0..64).map(|n| (n * 37) % 64)));

    // The same overrides on other switches are another config.
    let mut moved = SimConfig::paper_defaults();
    moved.per_switch_resources = (0..64)
        .map(|n| (NodeId::new(n + 1), sized(n)))
        .collect::<HashMap<_, _>>();
    assert_ne!(forward, Digest::of(&moved));
}
