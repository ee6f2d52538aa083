//! The per-program translation validator.
//!
//! Given a source procedure (the *model*) and object code claimed to
//! implement it (the *implementation*), [`validate`] certifies the pair by:
//!
//! 1. **Static object-code checks** — control-flow integrity (every jump
//!    target inside the code), frame-slot bounds, and a stack-depth
//!    abstract interpretation that proves the operand stack can never
//!    underflow and is consistent at every join point, with every reachable
//!    path ending in `Ret`. These checks need no reference to the source
//!    at all: they establish that the object code is *well-formed*.
//! 2. **Differential execution** — the model (AST interpreter) and the
//!    implementation (stack VM) are run on a systematic grid of small
//!    argument vectors plus seeded random vectors; any observable
//!    difference rejects the pair.
//!
//! This is exactly footnote 6's bargain: nothing here certifies the
//! *compiler* — only this source/object pair — and the job is mechanical.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::interp::{interpret, InterpErr};
use crate::lang::Procedure;
use crate::vm::{run, ExecError, Op, Program};

/// The validator's decision.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The pair is certified.
    Certified {
        /// Input vectors compared.
        vectors_checked: usize,
    },
    /// The pair is rejected.
    Rejected {
        /// Why.
        reason: String,
    },
}

impl Verdict {
    /// True for [`Verdict::Certified`].
    #[cfg(test)]
    fn is_certified(&self) -> bool {
        matches!(self, Verdict::Certified { .. })
    }
}

/// Static well-formedness of object code: CFI + slot bounds + stack-depth
/// consistency. Public so experiments can run it alone.
pub fn check_static(prog: &Program) -> Result<(), String> {
    let n = prog.code.len();
    if n == 0 {
        return Err("empty code".into());
    }
    // Slot bounds and jump bounds.
    for (pc, op) in prog.code.iter().enumerate() {
        match op {
            Op::Load(s) | Op::Store(s) if *s >= prog.nr_slots => {
                return Err(format!(
                    "pc {pc}: slot {s} outside frame of {}",
                    prog.nr_slots
                ));
            }
            Op::Jmp(t) | Op::Jz(t) if *t as usize >= n => {
                return Err(format!("pc {pc}: jump target {t} outside code"));
            }
            _ => {}
        }
    }
    if (prog.nr_params) > prog.nr_slots {
        return Err("more params than frame slots".into());
    }
    // Stack-depth abstract interpretation.
    let mut depth: Vec<Option<i32>> = vec![None; n];
    let mut work = vec![(0usize, 0i32)];
    while let Some((pc, d)) = work.pop() {
        match depth[pc] {
            Some(prev) if prev == d => continue,
            Some(prev) => {
                return Err(format!("pc {pc}: inconsistent stack depth ({prev} vs {d})"));
            }
            None => depth[pc] = Some(d),
        }
        let (delta, needs) = match prog.code[pc] {
            Op::Push(_) | Op::Load(_) => (1, 0),
            Op::Store(_) | Op::Jz(_) => (-1, 1),
            Op::Add | Op::Sub | Op::Mul | Op::Lt | Op::Gt | Op::Eq => (-1, 2),
            Op::Jmp(_) => (0, 0),
            Op::Ret => (-1, 1),
            // A call pops its arguments and pushes one result. In the
            // single-procedure context the validator works in, a local
            // call may only target procedure 0 (self-recursion).
            Op::CallLoc(p, n) => {
                if p != 0 {
                    return Err(format!("pc {pc}: call to procedure {p} outside module"));
                }
                (1 - i32::from(n), i32::from(n))
            }
            Op::CallExt(_, n) => (1 - i32::from(n), i32::from(n)),
        };
        if d < needs {
            return Err(format!("pc {pc}: stack underflow (depth {d})"));
        }
        let nd = d + delta;
        match prog.code[pc] {
            Op::Ret => {} // path ends
            Op::Jmp(t) => work.push((t as usize, nd)),
            Op::Jz(t) => {
                work.push((t as usize, nd));
                if pc + 1 >= n {
                    return Err(format!("pc {pc}: falls off end"));
                }
                work.push((pc + 1, nd));
            }
            _ => {
                if pc + 1 >= n {
                    return Err(format!("pc {pc}: falls off end without Ret"));
                }
                work.push((pc + 1, nd));
            }
        }
    }
    Ok(())
}

/// Builds the differential input grid for `nr_params` parameters: bounded
/// exhaustive small values plus seeded random vectors.
fn input_grid(nr_params: usize, seed: u64) -> Vec<Vec<i64>> {
    const SMALL: [i64; 7] = [-3, -1, 0, 1, 2, 3, 17];
    let mut grid = Vec::new();
    if nr_params == 0 {
        grid.push(Vec::new());
    } else {
        // Cap the exhaustive part at 7^4 combinations.
        let dims = nr_params.min(4);
        let combos = SMALL.len().pow(dims as u32);
        for mut c in 0..combos {
            let mut v = Vec::with_capacity(nr_params);
            for _ in 0..dims {
                v.push(SMALL[c % SMALL.len()]);
                c /= SMALL.len();
            }
            while v.len() < nr_params {
                v.push(1);
            }
            grid.push(v);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..64 {
        grid.push(
            (0..nr_params)
                .map(|_| rng.gen_range(-1_000..1_000))
                .collect(),
        );
    }
    grid
}

/// Fuel for each differential run (large enough for the kernel modules'
/// worst loops on grid inputs).
const FUEL: u64 = 200_000;

/// Validates the `(source, object)` pair.
pub fn validate(source: &Procedure, object: &Program) -> Verdict {
    if object.nr_params as usize != source.params.len() {
        return Verdict::Rejected {
            reason: "parameter count mismatch".into(),
        };
    }
    if let Err(reason) = check_static(object) {
        return Verdict::Rejected {
            reason: format!("static check: {reason}"),
        };
    }
    let grid = input_grid(source.params.len(), 0x05EC_04E1);
    for args in &grid {
        let model = interpret(source, args, FUEL);
        let implementation = run(object, args, FUEL);
        let agree = match (&model, &implementation) {
            (Ok(a), Ok(b)) => a == b,
            (Err(InterpErr::OutOfFuel), Err(ExecError::OutOfFuel)) => true,
            _ => false,
        };
        if !agree {
            return Verdict::Rejected {
                reason: format!(
                    "divergence on {args:?}: model {model:?} vs object {implementation:?}"
                ),
            };
        }
    }
    Verdict::Certified {
        vectors_checked: grid.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::lang::parse_program;

    fn pair(src: &str) -> (Procedure, Program) {
        let procs = parse_program(src).unwrap();
        let obj = compile(&procs[0]).unwrap();
        (procs[0].clone(), obj)
    }

    #[test]
    fn honest_compiles_are_certified() {
        for src in [
            "proc f(a, b) { return a + b * 2; }",
            "proc max(a, b) { if a > b { return a; } else { return b; } }",
            "proc tri(n) { let acc = 0; while 0 < n { acc := acc + n; n := n - 1; } return acc; }",
        ] {
            let (s, o) = pair(src);
            assert!(validate(&s, &o).is_certified(), "{src}");
        }
    }

    #[test]
    fn wrong_object_code_is_rejected_by_divergence() {
        let (s, mut o) = pair("proc f(a, b) { return a + b; }");
        // Miscompile: Add → Sub.
        for op in &mut o.code {
            if *op == Op::Add {
                *op = Op::Sub;
            }
        }
        assert!(!validate(&s, &o).is_certified());
    }

    #[test]
    fn corrupt_jumps_fail_the_static_check() {
        let (s, mut o) = pair("proc f(a) { if a > 0 { return 1; } return 0; }");
        for op in &mut o.code {
            if let Op::Jz(t) = op {
                *op = Op::Jz(*t + 500);
            }
        }
        match validate(&s, &o) {
            Verdict::Rejected { reason } => assert!(reason.contains("static")),
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn stack_imbalance_fails_the_static_check() {
        let (s, mut o) = pair("proc f(a) { return a; }");
        o.code.insert(0, Op::Add); // underflows immediately
        match validate(&s, &o) {
            Verdict::Rejected { reason } => assert!(reason.contains("underflow")),
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn wrong_arity_object_is_rejected() {
        let (s, mut o) = pair("proc f(a) { return a; }");
        o.nr_params = 2;
        o.nr_slots = 2;
        assert!(!validate(&s, &o).is_certified());
    }

    #[test]
    fn static_check_accepts_all_honest_kernel_compiles() {
        for (name, src) in crate::kernel_modules::KERNEL_SOURCES {
            let procs = parse_program(src).unwrap();
            for p in &procs {
                let o = compile(p).unwrap();
                assert!(check_static(&o).is_ok(), "{name}::{}", p.name);
            }
        }
    }

    #[test]
    fn validator_counts_its_vectors() {
        let (s, o) = pair("proc f() { return 42; }");
        match validate(&s, &o) {
            Verdict::Certified { vectors_checked } => assert!(vectors_checked >= 65),
            v => panic!("{v:?}"),
        }
    }
}
