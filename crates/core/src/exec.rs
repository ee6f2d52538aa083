//! The execution service: running programs out of segments.
//!
//! This module closes the loop the paper's removal projects opened: a
//! *program* is a KPL module compiled into an executable segment
//! (`mks-cert`'s word format, behind a length word); *running* it pulls the
//! image through the reference monitor (so ACLs, labels and the `e` mode
//! bit all apply), and every external reference (`lib_$entry`) is resolved
//! at call time by the dynamic-linking machinery — the same search-rules +
//! reference-name algorithm in both configurations, with the
//! configuration deciding *where the reference names live*: per-process
//! private tables (kernel configuration) or the shared supervisor table
//! (legacy).
//!
//! The faulting-and-snapping flow is exactly Janson's: the first call
//! through a link searches, initiates and records; later calls reuse the
//! binding.

use mks_cert::{
    compile_module, module_from_words, module_to_words, parse_program, run_module, ExecError,
    ExternResolver, Module,
};
use mks_fs::{Acl, AclMode};
use mks_hw::{RingBrackets, SegNo, Word, PAGE_WORDS};
use mks_linker::snap::{snap, LinkEnv, SearchRules};
use mks_mls::Label;
use mks_vm::SegControl;

use crate::config::LinkerConfig;
use crate::monitor::{AccessError, Monitor};
use crate::world::{KProcId, KernelWorld};

/// Execution-service failures.
#[derive(Debug, PartialEq, Eq)]
pub enum ExecFault {
    /// KPL parse error in the source being installed.
    Parse(String),
    /// KPL compile error.
    Compile(String),
    /// A monitor refusal (ACL, label, quota, fault).
    Access(AccessError),
    /// The segment's image is not a valid module.
    BadImage(&'static str),
    /// Object-code failure at run time.
    Vm(ExecError),
    /// The module exports no such entry point.
    NoSuchEntry(String),
    /// The caller lacks execute permission on the segment.
    NotExecutable,
    /// An external reference could not be linked.
    Link(String),
    /// Cross-segment call nesting exceeded the bound.
    Depth,
}

impl core::fmt::Display for ExecFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecFault::Parse(e) => write!(f, "parse: {e}"),
            ExecFault::Compile(e) => write!(f, "compile: {e}"),
            ExecFault::Access(e) => write!(f, "access: {e}"),
            ExecFault::BadImage(e) => write!(f, "bad image: {e}"),
            ExecFault::Vm(e) => write!(f, "execution: {e}"),
            ExecFault::NoSuchEntry(e) => write!(f, "no entry point {e}"),
            ExecFault::NotExecutable => write!(f, "segment is not executable"),
            ExecFault::Link(e) => write!(f, "linkage: {e}"),
            ExecFault::Depth => write!(f, "cross-segment call nesting too deep"),
        }
    }
}

impl std::error::Error for ExecFault {}

/// Compiles `source` and installs it as the executable segment `name` in
/// the directory bound at `dir_segno`. The stored image is one length word
/// followed by the module words. Returns the caller's binding.
pub fn install_module(
    world: &mut KernelWorld,
    pid: KProcId,
    dir_segno: SegNo,
    name: &str,
    source: &str,
    acl: Acl<AclMode>,
    label: Label,
) -> Result<SegNo, ExecFault> {
    let procs = parse_program(source).map_err(|e| ExecFault::Parse(e.to_string()))?;
    let module = compile_module(name, &procs).map_err(|e| ExecFault::Compile(e.to_string()))?;
    let words = module_to_words(&module).map_err(ExecFault::Vm)?;
    let segno = Monitor::create_segment(
        world,
        pid,
        dir_segno,
        name,
        acl,
        RingBrackets::new(4, 4, 4),
        label,
    )
    .map_err(ExecFault::Access)?;
    // Size the segment for the image (+1 for the length word).
    let len = words.len() + 1;
    let kst = world.proc(pid).kst.core();
    let uid = kst.entry(segno).expect("just created").uid;
    SegControl::grow(&mut world.vm, uid, len.max(PAGE_WORDS))
        .map_err(AccessError::Mech)
        .map_err(ExecFault::Access)?;
    world.fs.note_segment_length(uid, len.max(PAGE_WORDS));
    Monitor::write(world, pid, segno, 0, Word::new(words.len() as u64))
        .map_err(ExecFault::Access)?;
    for (i, w) in words.iter().enumerate() {
        Monitor::write(world, pid, segno, i + 1, *w).map_err(ExecFault::Access)?;
    }
    Ok(segno)
}

/// Reads and decodes the module stored at `segno`, enforcing the execute
/// mode bit (programs are *executed*, not just read).
fn load_module(world: &mut KernelWorld, pid: KProcId, segno: SegNo) -> Result<Module, ExecFault> {
    let executable = world
        .proc(pid)
        .aspace
        .get(segno)
        .is_some_and(|sdw| sdw.mode.execute || sdw.mode.write);
    // (A writable binding is the owner's own program under construction;
    //  an execute-only binding is the normal shared-library case.)
    if !executable {
        return Err(ExecFault::NotExecutable);
    }
    let len = Monitor::read(world, pid, segno, 0)
        .map_err(ExecFault::Access)?
        .raw() as usize;
    if len > 1 << 18 {
        return Err(ExecFault::BadImage("length word absurd"));
    }
    let mut words = Vec::with_capacity(len);
    for i in 0..len {
        words.push(Monitor::read(world, pid, segno, i + 1).map_err(ExecFault::Access)?);
    }
    match module_from_words(&words) {
        Ok(m) => Ok(m),
        Err(ExecError::BadImage(why)) => Err(ExecFault::BadImage(why)),
        Err(e) => Err(ExecFault::Vm(e)),
    }
}

/// The execution environment of one process: its search rules and the
/// recursion bound for cross-segment calls.
pub struct ExecEnv<'a> {
    /// The world.
    pub world: &'a mut KernelWorld,
    /// The executing process.
    pub pid: KProcId,
    /// Directories (by segno binding) searched for external references.
    pub rules: SearchRules,
    depth: usize,
}

/// Maximum cross-segment call nesting.
const MAX_XSEG_DEPTH: usize = 16;

impl<'a> ExecEnv<'a> {
    /// Creates an environment searching the given directories, in order.
    pub fn new(world: &'a mut KernelWorld, pid: KProcId, dirs: Vec<SegNo>) -> ExecEnv<'a> {
        ExecEnv {
            world,
            pid,
            rules: SearchRules::new(dirs),
            depth: 0,
        }
    }

    /// Calls `entry` of the module at `segno` with `args`.
    pub fn call(
        &mut self,
        segno: SegNo,
        entry: &str,
        args: &[i64],
        fuel: &mut u64,
    ) -> Result<i64, ExecFault> {
        let module = load_module(self.world, self.pid, segno)?;
        let idx = module
            .proc_named(entry)
            .ok_or_else(|| ExecFault::NoSuchEntry(format!("{}${entry}", module.name)))?;
        run_module(&module, idx, args, fuel, self).map_err(|e| match e {
            ExecError::ExternUnavailable(s) => ExecFault::Link(s),
            other => ExecFault::Vm(other),
        })
    }

    /// Snaps `seg$entry` with the configured linker's reference-name
    /// placement, returning the target binding.
    fn snap_link(&mut self, seg: &str, entry: &str) -> Result<SegNo, String> {
        let ring = self.world.proc(self.pid).ring;
        match self.world.cfg.linker {
            LinkerConfig::UserRing => {
                // Per-process, per-ring private reference names.
                let mut linker = std::mem::take(&mut self.world.proc_mut(self.pid).linker);
                let rules = self.rules.clone();
                let mut env = MonitorLinkEnv {
                    world: self.world,
                    pid: self.pid,
                };
                let out = snap(&mut env, &mut linker.refnames, &rules, ring, seg, entry);
                self.world.proc_mut(self.pid).linker = linker;
                out.map(|l| l.segno).map_err(|e| e.to_string())
            }
            LinkerConfig::InKernel => {
                // The shared supervisor table (the legacy arrangement).
                let mut linker = std::mem::take(&mut self.world.legacy_linker);
                let rules = self.rules.clone();
                let mut env = MonitorLinkEnv {
                    world: self.world,
                    pid: self.pid,
                };
                let out = snap(&mut env, &mut linker.refnames, &rules, ring, seg, entry);
                self.world.legacy_linker = linker;
                out.map(|l| l.segno).map_err(|e| e.to_string())
            }
        }
    }
}

impl ExternResolver for ExecEnv<'_> {
    fn call_extern(
        &mut self,
        seg: &str,
        entry: &str,
        args: &[i64],
        fuel: &mut u64,
    ) -> Result<i64, ExecError> {
        if self.depth >= MAX_XSEG_DEPTH {
            return Err(ExecError::ExternUnavailable("call nesting too deep".into()));
        }
        let target = self
            .snap_link(seg, entry)
            .map_err(|e| ExecError::ExternUnavailable(format!("{seg}${entry}: {e}")))?;
        self.depth += 1;
        let out = self.call(target, entry, args, fuel);
        self.depth -= 1;
        out.map_err(|e| match e {
            ExecFault::Vm(v) => v,
            other => ExecError::ExternUnavailable(format!("{seg}${entry}: {other}")),
        })
    }
}

/// The linking environment over the reference monitor: initiation applies
/// the full ACL/MLS checks, so a link can only snap to segments the
/// *executing process* could open anyway — linking grants nothing.
struct MonitorLinkEnv<'a> {
    world: &'a mut KernelWorld,
    pid: KProcId,
}

impl LinkEnv for MonitorLinkEnv<'_> {
    fn initiate_segment(&mut self, dir: SegNo, name: &str) -> Option<SegNo> {
        Monitor::initiate(self.world, self.pid, dir, name).ok()
    }

    fn entry_offset(&mut self, segno: SegNo, entry: &str) -> Option<usize> {
        load_module(self.world, self.pid, segno)
            .ok()?
            .proc_named(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelConfig;
    use crate::world::{admin_user, System};
    use mks_fs::{DirMode, UserId};

    fn jones() -> UserId {
        UserId::new("Jones", "CSR", "a")
    }

    /// System with an open >udd and >lib, plus a Jones process.
    fn setup(cfg: KernelConfig) -> (System, KProcId, SegNo, SegNo) {
        let mut sys = System::new(cfg);
        let admin = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
        let root = sys.world.bind_root(admin);
        for d in ["udd", "lib"] {
            Monitor::create_directory(&mut sys.world, admin, root, d, Label::BOTTOM).unwrap();
            sys.world
                .fs
                .set_dir_acl_entry(
                    mks_fs::FileSystem::ROOT,
                    d,
                    &admin_user(),
                    "*.*.*",
                    DirMode::SA,
                )
                .unwrap();
        }
        let pid = sys.world.create_process(jones(), Label::BOTTOM, 4);
        let root_j = sys.world.bind_root(pid);
        let udd = Monitor::initiate_dir(&mut sys.world, pid, root_j, "udd");
        let lib = Monitor::initiate_dir(&mut sys.world, pid, root_j, "lib");
        (sys, pid, udd, lib)
    }

    fn rw_re(owner: &str) -> Acl<AclMode> {
        let mut acl = Acl::of(owner, AclMode::REW);
        acl.add("*.*.*", AclMode::RE);
        acl
    }

    #[test]
    fn install_and_run_a_self_contained_program() {
        for cfg in [KernelConfig::legacy(), KernelConfig::kernel()] {
            let (mut sys, pid, udd, _lib) = setup(cfg);
            let seg = install_module(
                &mut sys.world,
                pid,
                udd,
                "tri_",
                "proc tri(n) { let acc = 0; while 0 < n { acc := acc + n; n := n - 1; } return acc; }",
                rw_re("Jones.CSR.a"),
                Label::BOTTOM,
            )
            .unwrap();
            let mut env = ExecEnv::new(&mut sys.world, pid, vec![]);
            let mut fuel = 100_000;
            assert_eq!(env.call(seg, "tri", &[100], &mut fuel), Ok(5050));
        }
    }

    #[test]
    fn cross_segment_calls_link_dynamically() {
        for cfg in [KernelConfig::legacy(), KernelConfig::kernel()] {
            let (mut sys, pid, udd, lib) = setup(cfg);
            install_module(
                &mut sys.world,
                pid,
                lib,
                "math_",
                "proc square(x) { return x * x; } proc cube(x) { return x * square(x); }",
                rw_re("Jones.CSR.a"),
                Label::BOTTOM,
            )
            .unwrap();
            let app = install_module(
                &mut sys.world,
                pid,
                udd,
                "app_",
                "proc main(n) { return math_$cube(n) + math_$square(n); }",
                rw_re("Jones.CSR.a"),
                Label::BOTTOM,
            )
            .unwrap();
            let mut env = ExecEnv::new(&mut sys.world, pid, vec![lib]);
            let mut fuel = 100_000;
            assert_eq!(env.call(app, "main", &[3], &mut fuel), Ok(36));
            // Second call rides the snapped link (reference name bound).
            let mut fuel = 100_000;
            assert_eq!(env.call(app, "main", &[4], &mut fuel), Ok(80));
        }
    }

    #[test]
    fn linking_grants_nothing_the_caller_lacks() {
        let (mut sys, pid, udd, lib) = setup(KernelConfig::kernel());
        // A library only its owner may touch.
        let owner = sys
            .world
            .create_process(UserId::new("Owner", "X", "a"), Label::BOTTOM, 4);
        let root_o = sys.world.bind_root(owner);
        let lib_o = Monitor::initiate_dir(&mut sys.world, owner, root_o, "lib");
        install_module(
            &mut sys.world,
            owner,
            lib_o,
            "secretlib_",
            "proc f(x) { return x; }",
            Acl::of("Owner.X.a", AclMode::REW),
            Label::BOTTOM,
        )
        .unwrap();
        // Jones's program references it; the link must fail to snap, and
        // uninformatively so.
        let app = install_module(
            &mut sys.world,
            pid,
            udd,
            "probe_",
            "proc main() { return secretlib_$f(1); }",
            rw_re("Jones.CSR.a"),
            Label::BOTTOM,
        )
        .unwrap();
        let mut env = ExecEnv::new(&mut sys.world, pid, vec![lib]);
        let mut fuel = 10_000;
        match env.call(app, "main", &[], &mut fuel) {
            Err(ExecFault::Link(e)) => assert!(e.contains("secretlib_")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn execute_permission_is_required() {
        let (mut sys, pid, udd, _lib) = setup(KernelConfig::kernel());
        // Readable but not executable to others.
        let mut acl = Acl::of("Jones.CSR.a", AclMode::REW);
        acl.add("Smith.CSR.a", AclMode::R);
        install_module(
            &mut sys.world,
            pid,
            udd,
            "data_not_code",
            "proc f() { return 7; }",
            acl,
            Label::BOTTOM,
        )
        .unwrap();
        let smith = sys
            .world
            .create_process(UserId::new("Smith", "CSR", "a"), Label::BOTTOM, 4);
        let root_s = sys.world.bind_root(smith);
        let udd_s = Monitor::initiate_dir(&mut sys.world, smith, root_s, "udd");
        let seg_s = Monitor::initiate(&mut sys.world, smith, udd_s, "data_not_code").unwrap();
        let mut env = ExecEnv::new(&mut sys.world, smith, vec![]);
        let mut fuel = 1_000;
        assert_eq!(
            env.call(seg_s, "f", &[], &mut fuel),
            Err(ExecFault::NotExecutable)
        );
    }

    #[test]
    fn corrupted_images_are_contained() {
        let (mut sys, pid, udd, _lib) = setup(KernelConfig::kernel());
        let seg = install_module(
            &mut sys.world,
            pid,
            udd,
            "victim_",
            "proc f() { return 1; }",
            rw_re("Jones.CSR.a"),
            Label::BOTTOM,
        )
        .unwrap();
        // The owner scribbles over the image (or a buggy compiler did).
        Monitor::write(&mut sys.world, pid, seg, 3, Word::new(0o777777)).unwrap();
        let mut env = ExecEnv::new(&mut sys.world, pid, vec![]);
        let mut fuel = 1_000;
        match env.call(seg, "f", &[], &mut fuel) {
            Err(ExecFault::BadImage(_))
            | Err(ExecFault::Vm(_))
            | Err(ExecFault::NoSuchEntry(_)) => {}
            other => panic!("corruption must be contained, got {other:?}"),
        }
    }

    #[test]
    fn runaway_programs_exhaust_fuel_not_the_kernel() {
        let (mut sys, pid, udd, _lib) = setup(KernelConfig::kernel());
        let seg = install_module(
            &mut sys.world,
            pid,
            udd,
            "spin_",
            "proc f() { let x = 1; while x > 0 { x := x + 1; } return x; }",
            rw_re("Jones.CSR.a"),
            Label::BOTTOM,
        )
        .unwrap();
        let mut env = ExecEnv::new(&mut sys.world, pid, vec![]);
        let mut fuel = 50_000;
        assert_eq!(
            env.call(seg, "f", &[], &mut fuel),
            Err(ExecFault::Vm(ExecError::OutOfFuel))
        );
        assert_eq!(fuel, 0);
    }

    #[test]
    fn search_rule_order_decides_shadowing() {
        let (mut sys, pid, udd, lib) = setup(KernelConfig::kernel());
        install_module(
            &mut sys.world,
            pid,
            lib,
            "util_",
            "proc v() { return 1; }",
            rw_re("Jones.CSR.a"),
            Label::BOTTOM,
        )
        .unwrap();
        install_module(
            &mut sys.world,
            pid,
            udd,
            "util_",
            "proc v() { return 2; }",
            rw_re("Jones.CSR.a"),
            Label::BOTTOM,
        )
        .unwrap();
        let app_src = "proc main() { return util_$v(); }";
        let app = install_module(
            &mut sys.world,
            pid,
            udd,
            "app_",
            app_src,
            rw_re("Jones.CSR.a"),
            Label::BOTTOM,
        )
        .unwrap();
        // udd first: the working-directory copy shadows the library.
        let mut env = ExecEnv::new(&mut sys.world, pid, vec![udd, lib]);
        let mut fuel = 10_000;
        assert_eq!(env.call(app, "main", &[], &mut fuel), Ok(2));
        // lib first, in a fresh process (fresh reference names).
        let pid2 = sys.world.create_process(jones(), Label::BOTTOM, 4);
        let root2 = sys.world.bind_root(pid2);
        let udd2 = Monitor::initiate_dir(&mut sys.world, pid2, root2, "udd");
        let lib2 = Monitor::initiate_dir(&mut sys.world, pid2, root2, "lib");
        let app2 = Monitor::initiate(&mut sys.world, pid2, udd2, "app_").unwrap();
        let mut env = ExecEnv::new(&mut sys.world, pid2, vec![lib2, udd2]);
        let mut fuel = 10_000;
        assert_eq!(env.call(app2, "main", &[], &mut fuel), Ok(1));
    }
}
