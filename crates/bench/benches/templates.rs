//! Per-template datapath benchmarks: what one frame costs in each of the
//! five function templates, plus HDL emission (the synthesis stage) and
//! each layer of its machine check (parse, lint, cost agreement).

use std::hint::black_box;
use tsn_bench::Runner;
use tsn_resource::ResourceConfig;
use tsn_switch::egress_sched::{CreditBasedShaper, EgressScheduler};
use tsn_switch::gate_ctrl::GateCtrl;
use tsn_switch::ingress_filter::{ClassEntry, ClassKey, IngressFilter, TokenBucketMeter};
use tsn_switch::layout::QueueLayout;
use tsn_switch::packet_switch::PacketSwitch;
use tsn_types::{
    DataRate, EthernetFrame, FlowId, MacAddr, MeterId, QueueId, SimDuration, SimTime, TrafficClass,
    VlanId,
};

const SLOT: SimDuration = SimDuration::from_micros(65);

fn frame(i: u64) -> EthernetFrame {
    EthernetFrame::builder()
        .src(MacAddr::station(1))
        .dst(MacAddr::station(100 + (i % 1024)))
        .class(TrafficClass::TimeSensitive)
        .size_bytes(64)
        .flow(FlowId::new((i % 1024) as u32))
        .build()
        .expect("valid frame")
}

fn bench_packet_switch(runner: &Runner) {
    let mut ps = PacketSwitch::new(1024, 0);
    for i in 0..1024u64 {
        ps.add_unicast(
            MacAddr::station(100 + i),
            VlanId::DEFAULT,
            tsn_types::PortId::new(0),
        )
        .expect("fits");
    }
    let frames: Vec<EthernetFrame> = (0..1024).map(frame).collect();
    let mut i = 0usize;
    runner.bench("packet_switch/lookup_hit", || {
        let hit = ps.lookup(black_box(&frames[i % frames.len()]));
        i += 1;
        hit
    });
    let miss = EthernetFrame::builder()
        .dst(MacAddr::station(99_999))
        .size_bytes(64)
        .build()
        .expect("valid frame");
    runner.bench("packet_switch/lookup_miss", || ps.lookup(black_box(&miss)));
}

fn bench_ingress_filter(runner: &Runner) {
    let mut filter = IngressFilter::new(1024, 1024, QueueLayout::standard8());
    let frames: Vec<EthernetFrame> = (0..1024).map(frame).collect();
    for (i, f) in frames.iter().enumerate() {
        filter
            .set_meter(
                MeterId::new(i as u32),
                TokenBucketMeter::new(DataRate::gbps(1), 4096).expect("valid meter"),
            )
            .expect("slot");
        filter
            .add_class_entry(
                ClassKey::of(f),
                ClassEntry {
                    queue: QueueId::new(6),
                    meter: Some(MeterId::new(i as u32)),
                },
            )
            .expect("fits");
    }
    let mut i = 0usize;
    let mut now = SimTime::ZERO;
    runner.bench("ingress_filter/classify_and_police", || {
        now += SimDuration::from_nanos(672);
        let v = filter.classify(black_box(&frames[i % frames.len()]), now);
        i += 1;
        v
    });
}

fn bench_gate_ctrl(runner: &Runner) {
    let mut now = SimTime::ZERO;
    let mut gates = GateCtrl::cqf(QueueLayout::standard8(), 1024, SLOT).expect("valid cqf");
    runner.bench("gate_ctrl/enqueue_dequeue_cycle", || {
        now += SimDuration::from_nanos(700);
        let q = gates
            .enqueue(QueueId::new(6), frame(0), now)
            .expect("gate open");
        // Drain in the next slot so the queue never fills up.
        let later = now + SLOT;
        if gates.eligible(q, later) {
            gates.pop(q);
        } else {
            // Alternate parity: eligible two slots later.
            gates.pop(q);
        }
    });
}

fn bench_egress_sched(runner: &Runner) {
    let mut gates = GateCtrl::new(
        QueueLayout::standard8(),
        64,
        tsn_switch::GateControlList::always_open(SLOT),
        tsn_switch::GateControlList::always_open(SLOT),
    )
    .expect("valid gates");
    let mut sched = EgressScheduler::new(8, 3, 3);
    for (slot, queue) in [(0usize, 3u8), (1, 4), (2, 5)] {
        sched
            .set_shaper(
                slot,
                CreditBasedShaper::new(DataRate::mbps(100)).expect("valid"),
            )
            .expect("slot");
        sched.map_queue(QueueId::new(queue), slot).expect("map");
    }
    for q in [0u8, 3, 6] {
        for _ in 0..32 {
            gates
                .enqueue(QueueId::new(q), frame(0), SimTime::ZERO)
                .expect("open");
        }
    }
    let mut now = SimTime::ZERO;
    runner.bench("egress_sched/select", || {
        now += SimDuration::from_nanos(672);
        black_box(sched.select(&gates, now))
    });
}

fn bench_time_sync(runner: &Runner) {
    use tsn_switch::time_sync::{ClockModel, SyncConfig, TimeSync};
    let mut node = TimeSync::new(ClockModel::new(40.0, 500_000.0), SyncConfig::default(), 1);
    node.measure_pdelay(SimDuration::from_nanos(50));
    let mut t = SimTime::ZERO;
    runner.bench("time_sync/process_sync", || {
        t += SimDuration::from_millis(125);
        node.process_sync(t.as_nanos() as f64, t + SimDuration::from_nanos(50));
        black_box(node.error_ns(t))
    });
}

/// The HDL path of one customization, one layer per case: emit, then
/// the machine check's parse, lint and cost agreement on the default
/// config.
fn bench_hdl(runner: &Runner) {
    let config = ResourceConfig::new();
    runner.bench("hdl/generate_bundle", || {
        tsn_hdl::generate(black_box(&config)).expect("generates")
    });
    let source = tsn_hdl::generate(&config)
        .expect("generates")
        .concatenated();
    runner.bench("hdl/parse", || {
        tsn_hdl::parse_modules(black_box(&source)).expect("parses")
    });
    let modules = tsn_hdl::parse_modules(&source).expect("parses");
    runner.bench("hdl/lint", || {
        let findings = tsn_hdl::lint_modules(black_box(&modules));
        assert!(findings.is_empty(), "default bundle lints clean");
    });
    runner.bench("hdl/cost_check", || {
        tsn_hdl::check_agreement(black_box(&config), black_box(&modules)).expect("agrees")
    });
}

fn main() {
    let runner = Runner::from_env();
    bench_packet_switch(&runner);
    bench_ingress_filter(&runner);
    bench_gate_ctrl(&runner);
    bench_egress_sched(&runner);
    bench_time_sync(&runner);
    bench_hdl(&runner);
}
