//! A4 — footnote 7: "There may still exist other performance penalties
//! associated with removing functions from the supervisor ... One goal of
//! the research is to understand better the performance cost of security."
//!
//! The cleanest such penalty: pathname initiation. The legacy supervisor
//! resolves `>a>b>c` behind **one** gate crossing; the kernel
//! configuration's user-ring loop crosses a gate **per component**. On the
//! 645 that multiplication is ruinous; on the 6180 it costs almost
//! nothing — which is exactly why the removal program waited for the 6180.

use std::fmt::Write;

use mks_fs::{Acl, AclMode, DirMode, UserId};
use mks_hw::{CpuModel, RingBrackets};
use mks_kernel::monitor::Monitor;
use mks_kernel::world::{admin_user, System, SystemSize};
use mks_kernel::KernelConfig;
use mks_mls::Label;

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::report::{banner, Table};

const QUOTE: &str = "footnote 7: understand better the performance cost of security";

/// One (depth, machine) cell of the comparison.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Directory components in the path.
    pub depth: usize,
    /// Machine display name.
    pub machine: &'static str,
    /// Legacy gate crossings per initiation.
    pub legacy_crossings: u64,
    /// Legacy cycles per initiation.
    pub legacy_cycles: u64,
    /// Kernel gate crossings per initiation.
    pub kernel_crossings: u64,
    /// Kernel cycles per initiation.
    pub kernel_cycles: u64,
}

impl CostRow {
    /// Extra cycles per initiation the removal costs on this machine.
    fn overhead_cycles(&self) -> u64 {
        self.kernel_cycles.saturating_sub(self.legacy_cycles)
    }
}

/// The depth × machine sweep, measured.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Rows in (depth, machine) order: depths [1, 3, 6] × [645, 6180].
    pub rows: Vec<CostRow>,
}

impl Measurement {
    fn at(&self, depth: usize, cpu: CpuModel) -> &CostRow {
        self.rows
            .iter()
            .find(|r| r.depth == depth && r.machine == cpu.name())
            .expect("sweep covers the cell")
    }

    /// Deepest-path row on the 645.
    fn deep_645(&self) -> &CostRow {
        self.at(6, CpuModel::H645)
    }

    /// Deepest-path row on the 6180.
    fn deep_6180(&self) -> &CostRow {
        self.at(6, CpuModel::H6180)
    }
}

fn build(cfg: KernelConfig, cpu: CpuModel, depth: usize) -> (System, mks_kernel::KProcId, String) {
    let mut sys = System::with_size(
        cfg,
        SystemSize {
            frames: 64,
            bulk_records: 256,
            cpu,
            ..SystemSize::default()
        },
    );
    let admin = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
    let mut dir = sys.world.bind_root(admin);
    let mut path = String::new();
    for i in 0..depth {
        let name = format!("d{i}");
        dir = Monitor::create_directory(&mut sys.world, admin, dir, &name, Label::BOTTOM).unwrap();
        path.push('>');
        path.push_str(&name);
    }
    Monitor::create_segment(
        &mut sys.world,
        admin,
        dir,
        "leaf",
        Acl::of("*.*.*", AclMode::RE),
        RingBrackets::new(4, 4, 4),
        Label::BOTTOM,
    )
    .unwrap();
    // Let everyone traverse.
    let _ = DirMode::S;
    let user = sys
        .world
        .create_process(UserId::new("U", "P", "a"), Label::BOTTOM, 4);
    path.push_str(">leaf");
    (sys, user, path)
}

fn time_initiations(cfg: KernelConfig, cpu: CpuModel, depth: usize) -> (u64, u64) {
    let (mut sys, user, path) = build(cfg, cpu, depth);
    let t0 = sys.world.vm.machine.clock.now();
    let x0 = sys.world.vm.machine.ring_crossings();
    const N: u64 = 200;
    for _ in 0..N {
        let seg = Monitor::initiate_path(&mut sys.world, user, &path).unwrap();
        Monitor::terminate(&mut sys.world, user, seg).unwrap();
    }
    (
        (sys.world.vm.machine.clock.now() - t0) / N,
        (sys.world.vm.machine.ring_crossings() - x0) / N,
    )
}

/// Times pathname initiation across depths, machines, and configurations.
pub fn measure() -> Measurement {
    let mut rows = Vec::new();
    for depth in [1usize, 3, 6] {
        for cpu in [CpuModel::H645, CpuModel::H6180] {
            let (lc, lx) = time_initiations(KernelConfig::legacy(), cpu, depth);
            let (kc, kx) = time_initiations(KernelConfig::kernel(), cpu, depth);
            rows.push(CostRow {
                depth,
                machine: cpu.name(),
                legacy_crossings: lx,
                legacy_cycles: lc,
                kernel_crossings: kx,
                kernel_cycles: kc,
            });
        }
    }
    Measurement { rows }
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner(
        "A4: the performance cost of removal — pathname initiation",
        "footnote 7: \"understand better the performance cost of security\"",
    );
    let mut t = Table::new(&[
        "path depth",
        "machine",
        "legacy: crossings/initiate",
        "cycles",
        "kernel: crossings/initiate",
        "cycles",
        "removal overhead",
    ]);
    for r in &m.rows {
        t.row(&[
            r.depth.to_string(),
            r.machine.into(),
            r.legacy_crossings.to_string(),
            r.legacy_cycles.to_string(),
            r.kernel_crossings.to_string(),
            r.kernel_cycles.to_string(),
            format!(
                "{:+.0}%",
                100.0 * (r.kernel_cycles as f64 - r.legacy_cycles as f64) / r.legacy_cycles as f64
            ),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "The kernel configuration crosses a gate per path component (the"
    )
    .unwrap();
    writeln!(
        out,
        "user-ring resolution loop) where the legacy supervisor crossed once."
    )
    .unwrap();
    writeln!(
        out,
        "On the 645, each extra crossing costs thousands of cycles — the"
    )
    .unwrap();
    writeln!(
        out,
        "pressure that had pushed everything into the supervisor. On the"
    )
    .unwrap();
    writeln!(
        out,
        "6180 the same crossings are ~32 cycles, and the removal is close to"
    )
    .unwrap();
    writeln!(
        out,
        "free: \"the performance penalty associated with supervisor calls has"
    )
    .unwrap();
    writeln!(out, "been removed.\"").unwrap();
    out
}

/// The paper's expectations over the sweep.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    let d645 = m.deep_645();
    let d6180 = m.deep_6180();
    vec![
        ClaimResult::new(
            "A4.legacy-one-crossing",
            "A4",
            QUOTE,
            ClaimShape::ExactCount { expect: 2 },
            d645.legacy_crossings as f64,
            "legacy crossings per initiation at depth 6 (one call = in + out)",
        ),
        ClaimResult::new(
            "A4.kernel-crossing-per-component",
            "A4",
            QUOTE,
            ClaimShape::ExactCount { expect: 8 },
            d645.kernel_crossings as f64,
            "kernel crossings per initiation at depth 6 (per component + leaf)",
        ),
        ClaimResult::new(
            "A4.645-ruinous",
            "A4",
            QUOTE,
            ClaimShape::AtLeast { min: 10_000.0 },
            d645.overhead_cycles() as f64,
            "extra cycles per initiation the removal costs on the 645, depth 6",
        ),
        ClaimResult::new(
            "A4.6180-affordable",
            "A4",
            QUOTE,
            ClaimShape::AtMost { max: 500.0 },
            d6180.overhead_cycles() as f64,
            "extra cycles per initiation the removal costs on the 6180, depth 6",
        ),
        ClaimResult::new(
            "A4.hardware-closes-gap",
            "A4",
            QUOTE,
            ClaimShape::FactorAtLeast {
                paper: 50.0,
                accept: 50.0,
            },
            d645.overhead_cycles() as f64 / d6180.overhead_cycles() as f64,
            "645 / 6180 removal overhead at depth 6 (gate hardware closes the gap)",
        ),
    ]
}

/// Measurement + report + claims.
pub fn run() -> ExperimentOutput {
    let m = measure();
    ExperimentOutput::new(report(&m), claims(&m))
}
