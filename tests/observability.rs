//! Cross-layer observability acceptance tests: the kernel flight
//! recorder's span trees, the metrics registry, the metering gate, and
//! the JSON snapshot path the experiment binaries consume.

use mks_bench::drivers::run_sequential_metered;
use mks_bench::report::layer_breakdown_from_json;
use mks_fs::{Acl, AclMode};
use mks_hw::RingBrackets;
use mks_kernel::monitor::Monitor;
use mks_kernel::world::{admin_user, System};
use mks_kernel::KernelConfig;
use mks_mls::Label;
use mks_trace::{Clock, EventKind, Layer, Snapshot, TraceHandle};
use mks_vm::{RefTrace, TraceConfig};

/// A kernel system with one bound segment ready to initiate.
fn system_with_probe() -> (System, mks_kernel::world::KProcId, mks_hw::SegNo) {
    let mut sys = System::new(KernelConfig::kernel());
    let admin = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
    let root = sys.world.bind_root(admin);
    let seg = Monitor::create_segment(
        &mut sys.world,
        admin,
        root,
        "probe",
        Acl::of("Admin.SysAdmin.a", AclMode::RW),
        RingBrackets::new(4, 4, 4),
        Label::BOTTOM,
    )
    .expect("admin owns the root");
    Monitor::terminate(&mut sys.world, admin, seg).expect("bound");
    (sys, admin, root)
}

#[test]
fn one_gate_call_produces_a_three_layer_span_tree() {
    let (mut sys, admin, root) = system_with_probe();
    // A single traced gate call…
    let seg = Monitor::initiate(&mut sys.world, admin, root, "probe").expect("own segment");
    assert!(seg.0 > 0);
    let tree = sys
        .world
        .vm
        .machine
        .trace
        .last_root_span()
        .expect("gate call closed a root span");
    // …spans the hardware gate, the reference monitor, and the vm layer.
    assert_eq!(tree.layer, Layer::Hw, "root is the ring crossing");
    let layers = tree.layers();
    assert!(layers.len() >= 3, "at least three layers, got {layers:?}");
    assert!(layers.contains(&Layer::Hw));
    assert!(layers.contains(&Layer::Monitor));
    assert!(layers.contains(&Layer::Vm));
    // Per-layer exclusive cycles partition the root's inclusive total.
    assert_eq!(tree.exclusive_sum(), tree.inclusive);
    assert!(tree.inclusive > 0, "a gate call costs cycles");
}

#[test]
fn snapshot_round_trips_through_the_bench_report() {
    let (mut sys, admin, root) = system_with_probe();
    for _ in 0..10 {
        let seg = Monitor::initiate(&mut sys.world, admin, root, "probe").unwrap();
        let _ = Monitor::read(&mut sys.world, admin, seg, 0).unwrap();
        Monitor::terminate(&mut sys.world, admin, seg).unwrap();
    }
    // The metering gate exports JSON; the bench report parses it back with
    // nothing lost on the way.
    let json = Monitor::metering_snapshot(&mut sys.world, admin).expect("user-callable gate");
    let parsed = Snapshot::from_json(&json).expect("valid JSON");
    assert_eq!(parsed.to_json(), json, "parse ∘ emit is the identity");
    // The gate decorates the trace snapshot with exactly one extra
    // section: the commit-log position (E20). Everything else is the
    // flight recorder's own snapshot, untouched.
    let replay = parsed
        .replay
        .expect("the gate exports the commit-log digest");
    assert_eq!(replay.commits, sys.world.commits.len());
    assert_eq!(replay.log_digest, sys.world.commits.head());
    let bare = Snapshot {
        replay: None,
        repl: None,
        ..parsed.clone()
    };
    assert_eq!(bare, sys.world.vm.machine.trace.snapshot());
    let table = layer_breakdown_from_json(&json).expect("report accepts the snapshot");
    let rendered = table.render();
    for layer in ["hw", "monitor", "vm"] {
        assert!(
            rendered.contains(layer),
            "breakdown lists {layer}: {rendered}"
        );
    }
}

#[test]
fn vmstats_view_and_registry_agree_on_fault_counts() {
    let trace = RefTrace::generate(&TraceConfig {
        length: 500,
        nr_segments: 3,
        pages_per_segment: 8,
        ..TraceConfig::default()
    });
    let (stats, _, snap) = run_sequential_metered(8, 64, &trace, 4);
    assert!(stats.faults > 0);
    assert_eq!(
        stats.faults,
        snap.counter("vm.faults"),
        "view and registry agree"
    );
    let latency = snap
        .histogram("vm.fault_latency")
        .expect("histogram present");
    assert_eq!(
        latency.count, stats.faults,
        "every fault observed exactly once"
    );
    assert_eq!(
        snap.histogram("vm.fault_steps").unwrap().count,
        stats.faults
    );
}

#[test]
fn trace_ring_stays_bounded_under_ten_thousand_events() {
    let clock = Clock::new();
    let capacity = 256;
    let t = TraceHandle::with_capacity(clock.clone(), capacity);
    for i in 0..10_000u64 {
        clock.advance(1);
        t.event(Layer::Io, EventKind::BufferOp, format!("op {i}"));
    }
    let ring = t.ring_stats();
    assert_eq!(ring.capacity, capacity as u64);
    assert!(ring.len <= ring.capacity, "ring never exceeds its capacity");
    assert_eq!(
        ring.next_seq, 10_000,
        "sequence numbers stay monotone across wrap"
    );
    assert_eq!(
        ring.dropped,
        10_000 - capacity as u64,
        "oldest records were overwritten"
    );
    // The survivors are exactly the newest `capacity` records, in order.
    let seqs: Vec<u64> = t.records().iter().map(|r| r.seq).collect();
    assert_eq!(
        seqs,
        ((10_000 - capacity as u64)..10_000).collect::<Vec<_>>()
    );
}

#[test]
fn kernel_workload_ring_stays_bounded() {
    let (mut sys, admin, root) = system_with_probe();
    for _ in 0..2_000 {
        let seg = Monitor::initiate(&mut sys.world, admin, root, "probe").unwrap();
        Monitor::terminate(&mut sys.world, admin, seg).unwrap();
    }
    let ring = sys.world.vm.machine.trace.ring_stats();
    assert!(ring.len <= ring.capacity);
    assert!(
        ring.dropped > 0,
        "2000 gate calls emit far more records than the ring holds"
    );
}

#[test]
fn monitor_verdicts_reach_the_registry() {
    let (mut sys, admin, root) = system_with_probe();
    let granted_before = sys.world.vm.machine.trace.counter("monitor.granted");
    Monitor::initiate(&mut sys.world, admin, root, "probe").unwrap();
    assert!(sys.world.vm.machine.trace.counter("monitor.granted") > granted_before);
    // A stranger's denied probe lands on the denied counter — attributed.
    let smith =
        sys.world
            .create_process(mks_fs::UserId::new("Smith", "Guest", "a"), Label::BOTTOM, 4);
    let root_s = sys.world.bind_root(smith);
    let denied_before = sys.world.vm.machine.trace.counter("monitor.denied");
    let _ = Monitor::initiate(&mut sys.world, smith, root_s, "probe");
    assert!(sys.world.vm.machine.trace.counter("monitor.denied") > denied_before);
    let records = sys.world.vm.machine.trace.records();
    let verdict = records
        .iter()
        .rev()
        .find(|r| r.kind == EventKind::Verdict && r.principal.as_deref() == Some("Smith.Guest.a"))
        .expect("denial recorded against its principal");
    assert!(verdict.detail.contains("denied"), "{}", verdict.detail);
}

#[test]
fn skew_injected_at_the_first_audit_record_establishes_the_baseline() {
    use mks_hw::{FaultEvent, FaultPlan, InjectKind};

    let (mut sys, _admin, _root) = system_with_probe();
    let smith =
        sys.world
            .create_process(mks_fs::UserId::new("Smith", "Guest", "a"), Label::BOTTOM, 4);
    let root_s = sys.world.bind_root(smith);

    // The SkewClock site is consulted once per audit append: warp the
    // very first record a little, and the third one far backwards.
    let inject = sys.world.vm.machine.inject.clone();
    inject.arm(&FaultPlan::from_events(vec![
        FaultEvent {
            kind: InjectKind::SkewClock,
            nth: 0,
            detail: 0,
        },
        FaultEvent {
            kind: InjectKind::SkewClock,
            nth: 2,
            detail: 900,
        },
    ]));

    // First denial: its timestamp is warped, but an empty log has no
    // earlier time to contradict — it must establish the baseline, not
    // count as a skew (the old `last_at: Cycles = 0` default could never
    // express this).
    let _ = Monitor::initiate(&mut sys.world, smith, root_s, "probe");
    assert_eq!(sys.world.log.len(), 1);
    assert_eq!(
        sys.world.log.clock_skews(),
        0,
        "the first record can never flag a skew"
    );

    // Second denial: unwarped, later than the first — still no skew.
    let _ = Monitor::initiate(&mut sys.world, smith, root_s, "probe");
    assert_eq!(sys.world.log.clock_skews(), 0);

    // Third denial: warped 901 cycles backwards, clearly predating the
    // second record — kept, saturated, and flagged.
    let _ = Monitor::initiate(&mut sys.world, smith, root_s, "probe");
    inject.disarm();
    assert_eq!(inject.fired().len(), 2, "both scheduled warps fired");
    assert_eq!(sys.world.log.clock_skews(), 1);

    let times: Vec<_> = sys.world.log.records().iter().map(|r| r.at).collect();
    assert_eq!(times.len(), 3);
    assert!(times[0] <= times[1], "baseline then forward");
    assert_eq!(times[1], times[2], "the skewed record saturates to last");

    // The incremental reader sees the same saturated, ordered stream.
    let tail = sys.world.log.snapshot_range(1);
    assert_eq!(tail.len(), 2);
    assert_eq!(tail[0].seq, 1);
    assert!(tail.windows(2).all(|w| w[0].at <= w[1].at));
}
