//! The stack machine: object-code semantics.
//!
//! Programs group into [`Module`]s — the unit the kernel stores in an
//! executable segment. A module's procedures call each other with
//! [`Op::CallLoc`]; references to *other* segments' procedures compile to
//! [`Op::CallExt`] over the module's link table, and are resolved at run
//! time by an [`ExternResolver`] — in the full system, the dynamic linker
//! (see `mks-kernel::exec`). The word codec ([`module_to_words`] /
//! [`module_from_words`]) is how modules live inside 36-bit segments.

use mks_hw::Word;

/// One object-code operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Push a literal.
    Push(i64),
    /// Push the value of frame slot `n`.
    Load(u16),
    /// Pop into frame slot `n`.
    Store(u16),
    /// Pop two, push sum (wrapping, like the hardware).
    Add,
    /// Pop two, push difference.
    Sub,
    /// Pop two, push product.
    Mul,
    /// Pop two, push 1 if below else 0.
    Lt,
    /// Pop two, push 1 if above else 0.
    Gt,
    /// Pop two, push 1 if equal else 0.
    Eq,
    /// Unconditional jump to absolute target.
    Jmp(u32),
    /// Pop; jump to target if zero.
    Jz(u32),
    /// Pop; return that value.
    Ret,
    /// Call local procedure `.0` with `.1` arguments from the stack.
    CallLoc(u16, u8),
    /// Call through link-table entry `.0` with `.1` arguments.
    CallExt(u16, u8),
}

/// A compiled procedure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    /// Procedure name (for reports).
    pub name: String,
    /// Number of parameters (occupying the first frame slots).
    pub nr_params: u16,
    /// Total frame slots (params + locals).
    pub nr_slots: u16,
    /// The code.
    pub code: Vec<Op>,
}

/// A compiled module: procedures plus the symbolic link table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Procedures, in definition order (entry names are their names).
    pub procs: Vec<Program>,
    /// External references: `(segment name, entry name)`.
    pub links: Vec<(String, String)>,
}

impl Module {
    /// Index of the procedure called `name`.
    pub fn proc_named(&self, name: &str) -> Option<usize> {
        self.procs.iter().position(|p| p.name == name)
    }
}

/// Execution failures — each is also a *detection*: a correct compile of a
/// well-formed KPL procedure can only produce [`ExecError::OutOfFuel`] (an
/// intentionally unbounded loop); the rest indicate corrupt object code or
/// a missing external.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// Operand stack underflow.
    StackUnderflow,
    /// Reference to a frame slot outside the frame.
    BadSlot(u16),
    /// Jump outside the code.
    BadJump(u32),
    /// Fell off the end without `Ret`.
    NoReturn,
    /// Step budget exhausted.
    OutOfFuel,
    /// Wrong number of arguments supplied.
    BadArity,
    /// Local call target outside the module.
    BadProcIndex(u16),
    /// Link index outside the link table.
    BadLink(u16),
    /// Call nesting exceeded the frame-stack bound.
    CallDepth,
    /// No resolver available for an external reference.
    ExternUnavailable(String),
    /// The word image is not a valid module.
    BadImage(&'static str),
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecError::StackUnderflow => write!(f, "operand stack underflow"),
            ExecError::BadSlot(s) => write!(f, "frame slot {s} out of range"),
            ExecError::BadJump(t) => write!(f, "jump target {t} out of range"),
            ExecError::NoReturn => write!(f, "fell off end of code"),
            ExecError::OutOfFuel => write!(f, "step budget exhausted"),
            ExecError::BadArity => write!(f, "wrong number of arguments"),
            ExecError::BadProcIndex(p) => write!(f, "call to procedure {p} out of module"),
            ExecError::BadLink(l) => write!(f, "link {l} outside link table"),
            ExecError::CallDepth => write!(f, "call nesting too deep"),
            ExecError::ExternUnavailable(s) => write!(f, "external {s} unavailable"),
            ExecError::BadImage(why) => write!(f, "bad module image: {why}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Resolves external calls during execution.
pub trait ExternResolver {
    /// Calls `seg$entry` with `args`, drawing on the shared `fuel`.
    fn call_extern(
        &mut self,
        seg: &str,
        entry: &str,
        args: &[i64],
        fuel: &mut u64,
    ) -> Result<i64, ExecError>;
}

/// A resolver for self-contained modules: every external reference fails.
pub struct NoExterns;

impl ExternResolver for NoExterns {
    fn call_extern(
        &mut self,
        seg: &str,
        entry: &str,
        _args: &[i64],
        _fuel: &mut u64,
    ) -> Result<i64, ExecError> {
        Err(ExecError::ExternUnavailable(format!("{seg}${entry}")))
    }
}

/// Maximum call-frame nesting.
const MAX_DEPTH: usize = 128;

struct Frame {
    proc_idx: usize,
    pc: usize,
    slots: Vec<i64>,
    stack: Vec<i64>,
}

fn new_frame(procs: &[Program], proc_idx: usize, args: &[i64]) -> Result<Frame, ExecError> {
    let p = &procs[proc_idx];
    if args.len() != p.nr_params as usize {
        return Err(ExecError::BadArity);
    }
    let mut slots = vec![0i64; p.nr_slots as usize];
    slots[..args.len()].copy_from_slice(args);
    Ok(Frame {
        proc_idx,
        pc: 0,
        slots,
        stack: Vec::with_capacity(16),
    })
}

/// Runs procedure `proc_idx` of a procedure set with full call support.
fn run_procs(
    procs: &[Program],
    links: &[(String, String)],
    proc_idx: usize,
    args: &[i64],
    fuel: &mut u64,
    resolver: &mut dyn ExternResolver,
) -> Result<i64, ExecError> {
    if proc_idx >= procs.len() {
        return Err(ExecError::BadProcIndex(proc_idx as u16));
    }
    let mut frames = vec![new_frame(procs, proc_idx, args)?];
    loop {
        if *fuel == 0 {
            return Err(ExecError::OutOfFuel);
        }
        *fuel -= 1;
        let f = frames.last_mut().expect("at least one frame");
        let code = &procs[f.proc_idx].code;
        let op = *code.get(f.pc).ok_or(ExecError::NoReturn)?;
        f.pc += 1;
        match op {
            Op::Push(n) => f.stack.push(n),
            Op::Load(s) => {
                let v = *f.slots.get(s as usize).ok_or(ExecError::BadSlot(s))?;
                f.stack.push(v);
            }
            Op::Store(s) => {
                let v = f.stack.pop().ok_or(ExecError::StackUnderflow)?;
                *f.slots.get_mut(s as usize).ok_or(ExecError::BadSlot(s))? = v;
            }
            Op::Add | Op::Sub | Op::Mul | Op::Lt | Op::Gt | Op::Eq => {
                let b = f.stack.pop().ok_or(ExecError::StackUnderflow)?;
                let a = f.stack.pop().ok_or(ExecError::StackUnderflow)?;
                f.stack.push(match op {
                    Op::Add => a.wrapping_add(b),
                    Op::Sub => a.wrapping_sub(b),
                    Op::Mul => a.wrapping_mul(b),
                    Op::Lt => i64::from(a < b),
                    Op::Gt => i64::from(a > b),
                    Op::Eq => i64::from(a == b),
                    _ => unreachable!(),
                });
            }
            Op::Jmp(t) => {
                if t as usize > code.len() {
                    return Err(ExecError::BadJump(t));
                }
                f.pc = t as usize;
            }
            Op::Jz(t) => {
                let v = f.stack.pop().ok_or(ExecError::StackUnderflow)?;
                if t as usize > code.len() {
                    return Err(ExecError::BadJump(t));
                }
                if v == 0 {
                    f.pc = t as usize;
                }
            }
            Op::Ret => {
                let v = f.stack.pop().ok_or(ExecError::StackUnderflow)?;
                frames.pop();
                match frames.last_mut() {
                    None => return Ok(v),
                    Some(caller) => caller.stack.push(v),
                }
            }
            Op::CallLoc(p, n) => {
                if p as usize >= procs.len() {
                    return Err(ExecError::BadProcIndex(p));
                }
                let n = n as usize;
                if f.stack.len() < n {
                    return Err(ExecError::StackUnderflow);
                }
                let args: Vec<i64> = f.stack.split_off(f.stack.len() - n);
                let frame = new_frame(procs, p as usize, &args)?;
                if frames.len() >= MAX_DEPTH {
                    return Err(ExecError::CallDepth);
                }
                frames.push(frame);
            }
            Op::CallExt(l, n) => {
                let (seg, entry) = links.get(l as usize).ok_or(ExecError::BadLink(l))?;
                let n = n as usize;
                if f.stack.len() < n {
                    return Err(ExecError::StackUnderflow);
                }
                let args: Vec<i64> = f.stack.split_off(f.stack.len() - n);
                let v = resolver.call_extern(seg, entry, &args, fuel)?;
                f.stack.push(v);
            }
        }
    }
}

/// Runs a module procedure by index.
pub fn run_module(
    m: &Module,
    proc_idx: usize,
    args: &[i64],
    fuel: &mut u64,
    resolver: &mut dyn ExternResolver,
) -> Result<i64, ExecError> {
    run_procs(&m.procs, &m.links, proc_idx, args, fuel, resolver)
}

/// Runs a single self-contained procedure (local recursion allowed, no
/// externs) — the validator's entry point.
pub fn run(prog: &Program, args: &[i64], fuel: u64) -> Result<i64, ExecError> {
    let mut fuel = fuel;
    run_procs(
        std::slice::from_ref(prog),
        &[],
        0,
        args,
        &mut fuel,
        &mut NoExterns,
    )
}

// --- the word codec ------------------------------------------------------

/// Magic word identifying a KPL module image.
const MODULE_MAGIC: u64 = 0o515;

fn op_to_pair(op: Op) -> Result<(u64, u64), ExecError> {
    // Zigzag for the signed push operand; 36 bits available.
    let zig = |v: i64| -> Result<u64, ExecError> {
        let z = ((v << 1) ^ (v >> 63)) as u64;
        if z >= 1 << 36 {
            return Err(ExecError::BadImage("push literal exceeds 36 bits"));
        }
        Ok(z)
    };
    Ok(match op {
        Op::Push(n) => (0, zig(n)?),
        Op::Load(s) => (1, u64::from(s)),
        Op::Store(s) => (2, u64::from(s)),
        Op::Add => (3, 0),
        Op::Sub => (4, 0),
        Op::Mul => (5, 0),
        Op::Lt => (6, 0),
        Op::Gt => (7, 0),
        Op::Eq => (8, 0),
        Op::Jmp(t) => (9, u64::from(t)),
        Op::Jz(t) => (10, u64::from(t)),
        Op::Ret => (11, 0),
        Op::CallLoc(p, n) => (12, (u64::from(p) << 8) | u64::from(n)),
        Op::CallExt(l, n) => (13, (u64::from(l) << 8) | u64::from(n)),
    })
}

fn pair_to_op(tag: u64, operand: u64) -> Result<Op, ExecError> {
    let unzig = |z: u64| -> i64 { ((z >> 1) as i64) ^ -((z & 1) as i64) };
    Ok(match tag {
        0 => Op::Push(unzig(operand)),
        1 => Op::Load(operand as u16),
        2 => Op::Store(operand as u16),
        3 => Op::Add,
        4 => Op::Sub,
        5 => Op::Mul,
        6 => Op::Lt,
        7 => Op::Gt,
        8 => Op::Eq,
        9 => Op::Jmp(operand as u32),
        10 => Op::Jz(operand as u32),
        11 => Op::Ret,
        12 => Op::CallLoc((operand >> 8) as u16, (operand & 0xff) as u8),
        13 => Op::CallExt((operand >> 8) as u16, (operand & 0xff) as u8),
        _ => return Err(ExecError::BadImage("unknown opcode tag")),
    })
}

/// Serializes a module into 36-bit words (the executable-segment format).
pub fn module_to_words(m: &Module) -> Result<Vec<Word>, ExecError> {
    let mut pool: Vec<u8> = Vec::new();
    let mut intern = |s: &str| {
        let off = pool.len() as u64;
        pool.extend_from_slice(s.as_bytes());
        (off, s.len() as u64)
    };
    let mut body: Vec<Word> = Vec::new();
    let (name_off, name_len) = intern(&m.name);
    for p in &m.procs {
        let (po, pl) = intern(&p.name);
        body.push(Word::new(po));
        body.push(Word::new(pl));
        body.push(Word::new(u64::from(p.nr_params)));
        body.push(Word::new(u64::from(p.nr_slots)));
        body.push(Word::new(p.code.len() as u64));
        for op in &p.code {
            let (tag, operand) = op_to_pair(*op)?;
            body.push(Word::new(tag));
            body.push(Word::new(operand));
        }
    }
    for (seg, entry) in &m.links {
        let (so, sl) = intern(seg);
        let (eo, el) = intern(entry);
        body.push(Word::new(so));
        body.push(Word::new(sl));
        body.push(Word::new(eo));
        body.push(Word::new(el));
    }
    let mut out = vec![
        Word::new(MODULE_MAGIC),
        Word::new(m.procs.len() as u64),
        Word::new(m.links.len() as u64),
        Word::new(pool.len() as u64),
        Word::new(name_off),
        Word::new(name_len),
    ];
    out.extend(body);
    out.extend(pool.iter().map(|b| Word::new(u64::from(*b))));
    Ok(out)
}

/// Deserializes (and fully validates) a module image.
pub fn module_from_words(words: &[Word]) -> Result<Module, ExecError> {
    let get = |i: usize| {
        words
            .get(i)
            .map(|w| w.raw())
            .ok_or(ExecError::BadImage("truncated"))
    };
    if get(0)? != MODULE_MAGIC {
        return Err(ExecError::BadImage("bad magic"));
    }
    let nr_procs = get(1)? as usize;
    let nr_links = get(2)? as usize;
    let pool_len = get(3)? as usize;
    if nr_procs > 1024 || nr_links > 1024 || pool_len > 1 << 20 {
        return Err(ExecError::BadImage("absurd counts"));
    }
    if pool_len > words.len() {
        return Err(ExecError::BadImage("pool exceeds image"));
    }
    let pool_start = words.len() - pool_len;
    let read_str = |off: u64, len: u64| -> Result<String, ExecError> {
        let (off, len) = (off as usize, len as usize);
        if off + len > pool_len {
            return Err(ExecError::BadImage("string escapes pool"));
        }
        let bytes: Vec<u8> = (0..len)
            .map(|i| words[pool_start + off + i].raw() as u8)
            .collect();
        String::from_utf8(bytes).map_err(|_| ExecError::BadImage("non-utf8 name"))
    };
    let name = read_str(get(4)?, get(5)?)?;
    let mut pos = 6usize;
    let mut procs = Vec::with_capacity(nr_procs);
    for _ in 0..nr_procs {
        let pname = read_str(get(pos)?, get(pos + 1)?)?;
        let nr_params = get(pos + 2)? as u16;
        let nr_slots = get(pos + 3)? as u16;
        let nr_ops = get(pos + 4)? as usize;
        if nr_ops > 1 << 16 {
            return Err(ExecError::BadImage("absurd code size"));
        }
        pos += 5;
        let mut code = Vec::with_capacity(nr_ops);
        for _ in 0..nr_ops {
            let op = pair_to_op(get(pos)?, get(pos + 1)?)?;
            pos += 2;
            code.push(op);
        }
        procs.push(Program {
            name: pname,
            nr_params,
            nr_slots,
            code,
        });
    }
    let mut links = Vec::with_capacity(nr_links);
    for _ in 0..nr_links {
        let seg = read_str(get(pos)?, get(pos + 1)?)?;
        let entry = read_str(get(pos + 2)?, get(pos + 3)?)?;
        pos += 4;
        links.push((seg, entry));
    }
    if pos > pool_start {
        return Err(ExecError::BadImage("body overlaps pool"));
    }
    Ok(Module { name, procs, links })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(nr_params: u16, nr_slots: u16, code: Vec<Op>) -> Program {
        Program {
            name: "t".into(),
            nr_params,
            nr_slots,
            code,
        }
    }

    #[test]
    fn arithmetic_works() {
        let p = prog(2, 2, vec![Op::Load(0), Op::Load(1), Op::Add, Op::Ret]);
        assert_eq!(run(&p, &[3, 4], 100), Ok(7));
    }

    #[test]
    fn comparisons_yield_0_or_1() {
        let p = prog(2, 2, vec![Op::Load(0), Op::Load(1), Op::Lt, Op::Ret]);
        assert_eq!(run(&p, &[1, 2], 100), Ok(1));
        assert_eq!(run(&p, &[2, 1], 100), Ok(0));
    }

    #[test]
    fn jz_branches_on_zero() {
        let p = prog(
            1,
            1,
            vec![
                Op::Load(0),
                Op::Jz(4),
                Op::Push(1),
                Op::Ret,
                Op::Push(99),
                Op::Ret,
            ],
        );
        assert_eq!(run(&p, &[0], 100), Ok(99));
        assert_eq!(run(&p, &[5], 100), Ok(1));
    }

    #[test]
    fn corrupt_code_is_detected_not_undefined() {
        assert_eq!(
            run(&prog(0, 0, vec![Op::Ret]), &[], 100),
            Err(ExecError::StackUnderflow)
        );
        assert_eq!(
            run(&prog(0, 1, vec![Op::Load(5)]), &[], 100),
            Err(ExecError::BadSlot(5))
        );
        assert_eq!(
            run(&prog(0, 0, vec![Op::Jmp(99)]), &[], 100),
            Err(ExecError::BadJump(99))
        );
        assert_eq!(
            run(&prog(0, 0, vec![Op::Push(1)]), &[], 100),
            Err(ExecError::NoReturn)
        );
        assert_eq!(
            run(&prog(1, 1, vec![Op::Ret]), &[], 100),
            Err(ExecError::BadArity)
        );
    }

    #[test]
    fn fuel_bounds_infinite_loops() {
        let p = prog(0, 0, vec![Op::Jmp(0)]);
        assert_eq!(run(&p, &[], 1000), Err(ExecError::OutOfFuel));
    }

    #[test]
    fn arithmetic_wraps_like_hardware() {
        let p = prog(
            0,
            0,
            vec![Op::Push(i64::MAX), Op::Push(1), Op::Add, Op::Ret],
        );
        assert_eq!(run(&p, &[], 100), Ok(i64::MIN));
    }

    /// fact(n) by local recursion, hand-assembled.
    fn fact_module() -> Module {
        Module {
            name: "fact_".into(),
            procs: vec![Program {
                name: "fact".into(),
                nr_params: 1,
                nr_slots: 1,
                code: vec![
                    Op::Load(0),
                    Op::Push(1),
                    Op::Gt, // n > 1 ?
                    Op::Jz(11),
                    Op::Load(0),
                    Op::Load(0),
                    Op::Push(1),
                    Op::Sub,
                    Op::CallLoc(0, 1),
                    Op::Mul,
                    Op::Ret,
                    Op::Push(1), // base case
                    Op::Ret,
                ],
            }],
            links: vec![],
        }
    }

    #[test]
    fn local_recursion_works() {
        let m = fact_module();
        let mut fuel = 100_000;
        assert_eq!(run_module(&m, 0, &[6], &mut fuel, &mut NoExterns), Ok(720));
    }

    #[test]
    fn call_depth_is_bounded() {
        let m = Module {
            name: "loop_".into(),
            procs: vec![prog(0, 0, vec![Op::CallLoc(0, 0), Op::Ret])],
            links: vec![],
        };
        let mut fuel = 1_000_000;
        assert_eq!(
            run_module(&m, 0, &[], &mut fuel, &mut NoExterns),
            Err(ExecError::CallDepth)
        );
    }

    #[test]
    fn extern_calls_hit_the_resolver() {
        struct Doubler;
        impl ExternResolver for Doubler {
            fn call_extern(
                &mut self,
                seg: &str,
                entry: &str,
                args: &[i64],
                fuel: &mut u64,
            ) -> Result<i64, ExecError> {
                assert_eq!((seg, entry), ("math_", "double"));
                *fuel = fuel.saturating_sub(1);
                Ok(args[0] * 2)
            }
        }
        let m = Module {
            name: "caller".into(),
            procs: vec![prog(1, 1, vec![Op::Load(0), Op::CallExt(0, 1), Op::Ret])],
            links: vec![("math_".into(), "double".into())],
        };
        let mut fuel = 1000;
        assert_eq!(run_module(&m, 0, &[21], &mut fuel, &mut Doubler), Ok(42));
        let mut fuel = 1000;
        assert!(matches!(
            run_module(&m, 0, &[21], &mut fuel, &mut NoExterns),
            Err(ExecError::ExternUnavailable(_))
        ));
    }

    #[test]
    fn bad_call_targets_are_detected() {
        let m = Module {
            name: "bad".into(),
            procs: vec![prog(0, 0, vec![Op::CallLoc(7, 0), Op::Ret])],
            links: vec![],
        };
        let mut fuel = 100;
        assert_eq!(
            run_module(&m, 0, &[], &mut fuel, &mut NoExterns),
            Err(ExecError::BadProcIndex(7))
        );
        let m2 = Module {
            name: "bad2".into(),
            procs: vec![prog(0, 0, vec![Op::CallExt(3, 0), Op::Ret])],
            links: vec![],
        };
        let mut fuel = 100;
        assert_eq!(
            run_module(&m2, 0, &[], &mut fuel, &mut NoExterns),
            Err(ExecError::BadLink(3))
        );
    }

    #[test]
    fn word_codec_round_trips() {
        let m = fact_module();
        let words = module_to_words(&m).unwrap();
        let back = module_from_words(&words).unwrap();
        assert_eq!(back, m);
        // Negative literals survive the zigzag.
        let m2 = Module {
            name: "neg".into(),
            procs: vec![prog(0, 0, vec![Op::Push(-12345), Op::Ret])],
            links: vec![("a_".into(), "b".into())],
        };
        let words = module_to_words(&m2).unwrap();
        assert_eq!(module_from_words(&words).unwrap(), m2);
    }

    #[test]
    fn corrupted_images_are_rejected_not_undefined() {
        let m = fact_module();
        let words = module_to_words(&m).unwrap();
        // Truncations and bit flips must yield BadImage or a valid-but-
        // different module — never a panic.
        for cut in 0..words.len() {
            let _ = module_from_words(&words[..cut]);
        }
        for i in 0..words.len() {
            let mut w = words.clone();
            w[i] = Word::new(w[i].raw() ^ 0o7777);
            let _ = module_from_words(&w);
        }
        // Wrong magic is always rejected.
        let mut w = words.clone();
        w[0] = Word::new(0);
        assert_eq!(module_from_words(&w), Err(ExecError::BadImage("bad magic")));
    }
}
