//! Data-defined compiler mappings: a [`TableMapping`] is a [`Mapping`]
//! whose per-ordering instruction sequences come from a table instead of
//! Rust source, so a whole C11 → ISA mapping can live in a stack
//! definition file loaded at runtime.
//!
//! Each table entry is one line in the stack-file syntax:
//!
//! ```text
//! ld rlx|acq|sc = ld
//! st rlx|rel   = st
//! st sc        = st; mfence
//! ```
//!
//! The left-hand side names the C11 operation (`ld`, `st` or `rmw`) and
//! the memory orders the entry covers (`rlx`, `acq`, `rel`, `acq-rel`,
//! `sc`, joined with `|`); the right-hand side is a `;`-separated
//! instruction sequence over this vocabulary:
//!
//! - `ld` / `st` / `rmw` — the plain access itself (exactly one access
//!   per entry);
//! - `amo.ld[.aq][.rl][.sc]` / `amo.st[.aq][.rl][.sc]` — the access as
//!   an AMO carrying the given ordering bits (the AMO-as-load /
//!   swap-as-store idioms of the Base+A mappings); `rmw` takes the same
//!   bit suffixes directly. Bits are literal: the current ISA's
//!   "`aq.rl` implies store atomicity" must be spelled `.aq.rl.sc`.
//! - `fence P,S` with `P`,`S` ∈ `r`/`w`/`rw` — a non-cumulative fence;
//! - `lwfence` / `hwfence` — the paper's cumulative fences;
//! - `mfence` — x86 `MFENCE`;
//! - `ctrlisync` — shorthand for `fence r,rw`.
//!
//! Memory orders with no entry compile to `CompileError::Unsupported`.
//! Every built-in mapping is a table too: the crate's RISC-V and Power
//! rows, and the x86 rows of `models/x86-tso.stack`.

use tricheck_isa::{AccessTypes, AmoBits, FenceKind, HwAnnot};
use tricheck_litmus::{Expr, Instr, MemOrder, Reg, RmwKind};

use crate::{CompileError, Mapping};

/// One step of a table entry: a fence, or the access itself (plain or
/// as an AMO carrying ordering bits).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapStep {
    /// Emit a fence of this kind.
    Fence(FenceKind),
    /// Emit the access as a plain load/store (or an unannotated RMW).
    Access,
    /// Emit the access as an AMO carrying these ordering bits.
    Amo(AmoBits),
}

impl MapStep {
    fn is_access(self) -> bool {
        matches!(self, MapStep::Access | MapStep::Amo(_))
    }
}

/// Which C11 operation a table entry maps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapOp {
    /// An atomic load.
    Load,
    /// An atomic store.
    Store,
    /// An atomic read-modify-write.
    Rmw,
}

impl MapOp {
    /// The table-syntax keyword for this operation (`ld`/`st`/`rmw`).
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            MapOp::Load => "ld",
            MapOp::Store => "st",
            MapOp::Rmw => "rmw",
        }
    }
}

/// The table-syntax word for a memory order (`rlx`, `acq`, …).
#[must_use]
pub fn order_word(mo: MemOrder) -> &'static str {
    MO_WORDS[mo_index(mo)].0
}

/// The memory orders the C11 front end can actually request for `op`:
/// the language has no release loads or acquire stores (the compiler
/// rejects `ld rel`/`ld acq-rel` and `st acq`/`st acq-rel` outright),
/// while RMWs may carry any order.
///
/// A table row outside this set can never be exercised; a *reachable*
/// order left undefined compiles to `CompileError::Unsupported`. The
/// lint pass's `W004` reports both.
#[must_use]
pub fn reachable_orders(op: MapOp) -> &'static [MemOrder] {
    match op {
        MapOp::Load => &[MemOrder::Rlx, MemOrder::Acq, MemOrder::Sc],
        MapOp::Store => &[MemOrder::Rlx, MemOrder::Rel, MemOrder::Sc],
        MapOp::Rmw => &[
            MemOrder::Rlx,
            MemOrder::Acq,
            MemOrder::Rel,
            MemOrder::AcqRel,
            MemOrder::Sc,
        ],
    }
}

const MO_WORDS: [(&str, MemOrder); 5] = [
    ("rlx", MemOrder::Rlx),
    ("acq", MemOrder::Acq),
    ("rel", MemOrder::Rel),
    ("acq-rel", MemOrder::AcqRel),
    ("sc", MemOrder::Sc),
];

fn mo_index(mo: MemOrder) -> usize {
    match mo {
        MemOrder::Rlx => 0,
        MemOrder::Acq => 1,
        MemOrder::Rel => 2,
        MemOrder::AcqRel => 3,
        MemOrder::Sc => 4,
    }
}

/// A [`Mapping`] defined by per-(operation, ordering) instruction
/// tables — see the [module docs](self) for the entry syntax.
#[derive(Clone, Debug, Default)]
pub struct TableMapping {
    name: &'static str,
    /// Entries indexed by `[op as usize][mo_index(mo)]`.
    entries: [[Option<Vec<MapStep>>; 5]; 3],
}

impl TableMapping {
    /// An empty table (every access unsupported) with the given report
    /// name. Runtime-loaded names are interned via
    /// `tricheck_rel::parse::intern` by the stack registry.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        TableMapping {
            name,
            ..TableMapping::default()
        }
    }

    /// `true` once at least one entry has been defined.
    #[must_use]
    pub fn defines_anything(&self) -> bool {
        self.entries.iter().flatten().flatten().next().is_some()
    }

    /// Defines the instruction sequence for `op` at each order in
    /// `orders`.
    ///
    /// # Errors
    ///
    /// If the sequence does not contain exactly one access step, or an
    /// order already has an entry.
    pub fn define(
        &mut self,
        op: MapOp,
        orders: &[MemOrder],
        steps: Vec<MapStep>,
    ) -> Result<(), String> {
        let accesses = steps.iter().filter(|s| s.is_access()).count();
        if accesses != 1 {
            return Err(format!(
                "a '{}' entry must contain exactly one access step, found {accesses}",
                op.word()
            ));
        }
        for &mo in orders {
            let slot = &mut self.entries[op as usize][mo_index(mo)];
            if slot.is_some() {
                return Err(format!(
                    "duplicate '{}' entry for order '{}'",
                    op.word(),
                    MO_WORDS[mo_index(mo)].0
                ));
            }
            *slot = Some(steps.clone());
        }
        Ok(())
    }

    /// `true` if an entry has been defined for `op` at order `mo`.
    #[must_use]
    pub fn defines(&self, op: MapOp, mo: MemOrder) -> bool {
        self.entries[op as usize][mo_index(mo)].is_some()
    }

    /// Parses and installs one `<op> <orders> = <steps>` table line,
    /// e.g. `st sc = st; mfence`. Returns which operation and orders
    /// the line defined, so loaders can reason about row coverage.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the unknown operation, order or
    /// instruction.
    pub fn parse_line(&mut self, line: &str) -> Result<(MapOp, Vec<MemOrder>), String> {
        let (lhs, rhs) = line
            .split_once('=')
            .ok_or_else(|| "expected '<op> <orders> = <steps>'".to_string())?;
        let mut words = lhs.split_whitespace();
        let op = match words.next() {
            Some("ld") => MapOp::Load,
            Some("st") => MapOp::Store,
            Some("rmw") => MapOp::Rmw,
            Some(other) => {
                return Err(format!(
                    "unknown operation '{other}' (expected ld, st or rmw)"
                ))
            }
            None => return Err("missing operation (expected ld, st or rmw)".to_string()),
        };
        let orders_text: String = words.collect::<Vec<_>>().concat();
        if orders_text.is_empty() {
            return Err(format!(
                "missing memory orders after '{}' (e.g. '{} rlx|sc = ...')",
                op.word(),
                op.word()
            ));
        }
        let mut orders = Vec::new();
        for word in orders_text.split('|') {
            let mo = MO_WORDS
                .iter()
                .find(|(w, _)| *w == word)
                .map(|&(_, mo)| mo)
                .ok_or_else(|| {
                    format!("unknown memory order '{word}' (expected rlx, acq, rel, acq-rel or sc)")
                })?;
            orders.push(mo);
        }
        let steps = parse_steps(op, rhs)?;
        self.define(op, &orders, steps)?;
        Ok((op, orders))
    }

    /// Emits `op`'s entry at `mo`: fence steps as fences, the one
    /// access step through `access` (given its AMO bits, if any).
    fn emit(
        &self,
        op: MapOp,
        mo: MemOrder,
        unsupported: &'static str,
        access: impl Fn(Option<AmoBits>) -> Instr<HwAnnot>,
    ) -> Result<Vec<Instr<HwAnnot>>, CompileError> {
        let steps = self.entries[op as usize][mo_index(mo)].as_deref().ok_or(
            CompileError::Unsupported {
                mapping: self.name,
                construct: unsupported,
            },
        )?;
        Ok(steps
            .iter()
            .map(|step| match *step {
                MapStep::Fence(kind) => Instr::Fence {
                    ann: HwAnnot::Fence(kind),
                },
                MapStep::Access => access(None),
                MapStep::Amo(bits) => access(Some(bits)),
            })
            .collect())
    }
}

fn parse_bits(parts: &[&str]) -> Result<AmoBits, String> {
    let mut bits = AmoBits::NONE;
    for part in parts {
        let flag = match *part {
            "aq" => &mut bits.aq,
            "rl" => &mut bits.rl,
            "sc" => &mut bits.sc,
            other => return Err(format!("unknown AMO ordering bit '.{other}'")),
        };
        if *flag {
            return Err(format!("duplicate AMO ordering bit '.{part}'"));
        }
        *flag = true;
    }
    Ok(bits)
}

fn parse_access_types(word: &str) -> Result<AccessTypes, String> {
    match word {
        "r" => Ok(AccessTypes::R),
        "w" => Ok(AccessTypes::W),
        "rw" => Ok(AccessTypes::RW),
        other => Err(format!(
            "unknown access-type set '{other}' (expected r, w or rw)"
        )),
    }
}

fn parse_steps(op: MapOp, text: &str) -> Result<Vec<MapStep>, String> {
    let mut steps = Vec::new();
    for part in text.split(';') {
        let words: Vec<&str> = part.split_whitespace().collect();
        let step = match words.as_slice() {
            [] => return Err("empty instruction (stray ';'?)".to_string()),
            ["fence", args] => {
                let (pred, succ) = args.split_once(',').ok_or_else(|| {
                    format!("'fence {args}' needs 'fence P,S' with P,S in r/w/rw")
                })?;
                MapStep::Fence(FenceKind::Normal {
                    pred: parse_access_types(pred)?,
                    succ: parse_access_types(succ)?,
                })
            }
            ["lwfence"] => MapStep::Fence(FenceKind::CumulativeLight),
            ["hwfence"] => MapStep::Fence(FenceKind::CumulativeHeavy),
            ["mfence"] => MapStep::Fence(FenceKind::Mfence),
            ["ctrlisync"] => MapStep::Fence(FenceKind::Normal {
                pred: AccessTypes::R,
                succ: AccessTypes::RW,
            }),
            [access] => {
                let dotted: Vec<&str> = access.split('.').collect();
                match (op, dotted.as_slice()) {
                    (MapOp::Load, ["ld"]) | (MapOp::Store, ["st"]) => MapStep::Access,
                    (MapOp::Load, ["amo", "ld", bits @ ..])
                    | (MapOp::Store, ["amo", "st", bits @ ..])
                    | (MapOp::Rmw, ["rmw", bits @ ..]) => MapStep::Amo(parse_bits(bits)?),
                    _ => {
                        return Err(format!(
                            "unknown instruction '{access}' in a '{}' entry (expected {}, \
                             fence P,S, lwfence, hwfence, mfence or ctrlisync)",
                            op.word(),
                            match op {
                                MapOp::Load => "ld or amo.ld[.aq][.rl][.sc]",
                                MapOp::Store => "st or amo.st[.aq][.rl][.sc]",
                                MapOp::Rmw => "rmw[.aq][.rl][.sc]",
                            }
                        ))
                    }
                }
            }
            _ => return Err(format!("unknown instruction '{}'", words.join(" "))),
        };
        steps.push(step);
    }
    Ok(steps)
}

impl Mapping for TableMapping {
    fn name(&self) -> &'static str {
        self.name
    }

    /// An AMO load is the AMO-as-load idiom (`amoadd.w dst, x0, (addr)`):
    /// the zero-add write puts back the value just read, so it is
    /// architecturally invisible; the paper's µspec models treat it as a
    /// load carrying the AMO ordering bits, and so do we. (A genuine C11
    /// RMW still compiles to `Instr::Rmw`.)
    fn load(
        &self,
        dst: Reg,
        addr: Expr,
        mo: MemOrder,
    ) -> Result<Vec<Instr<HwAnnot>>, CompileError> {
        let construct = match mo {
            MemOrder::Rel | MemOrder::AcqRel => "release-ordered load",
            _ => "this load ordering",
        };
        self.emit(MapOp::Load, mo, construct, |amo| Instr::Read {
            dst,
            addr,
            ann: amo.map_or(HwAnnot::Plain, HwAnnot::Amo),
        })
    }

    /// An AMO store is a swap whose old value lands in `scratch`.
    fn store(
        &self,
        addr: Expr,
        val: Expr,
        mo: MemOrder,
        scratch: Reg,
    ) -> Result<Vec<Instr<HwAnnot>>, CompileError> {
        let construct = match mo {
            MemOrder::Acq | MemOrder::AcqRel => "acquire-ordered store",
            _ => "this store ordering",
        };
        self.emit(MapOp::Store, mo, construct, |amo| match amo {
            None => Instr::Write {
                addr,
                val,
                ann: HwAnnot::Plain,
            },
            Some(bits) => Instr::Rmw {
                dst: scratch,
                addr,
                kind: RmwKind::Swap(val),
                ann: HwAnnot::Amo(bits),
            },
        })
    }

    fn rmw(
        &self,
        dst: Reg,
        addr: Expr,
        kind: RmwKind,
        mo: MemOrder,
    ) -> Result<Vec<Instr<HwAnnot>>, CompileError> {
        self.emit(MapOp::Rmw, mo, "C11 RMW", |amo| Instr::Rmw {
            dst,
            addr,
            kind,
            ann: HwAnnot::Amo(amo.unwrap_or(AmoBits::NONE)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amo_and_fence_steps_parse() {
        use tricheck_litmus::{Expr, Reg};
        let mut t = TableMapping::new("riscv-like");
        t.parse_line("ld acq = amo.ld.aq").unwrap();
        t.parse_line("ld sc = hwfence; ld; fence r,rw").unwrap();
        t.parse_line("st rel = lwfence; st").unwrap();
        t.parse_line("st sc = amo.st.rl.sc").unwrap();
        t.parse_line("rmw acq-rel = rmw.aq.rl").unwrap();
        assert!(t.defines_anything());
        let instrs = t.load(Reg(1), Expr::Const(0), MemOrder::Acq).unwrap();
        let amo_load = Instr::Read {
            dst: Reg(1),
            addr: Expr::Const(0),
            ann: HwAnnot::Amo(AmoBits::AQ),
        };
        assert_eq!(instrs, vec![amo_load]);
        let instrs = t
            .rmw(
                Reg(1),
                Expr::Const(0),
                RmwKind::FetchAddZero,
                MemOrder::AcqRel,
            )
            .unwrap();
        assert_eq!(
            instrs,
            vec![Instr::Rmw {
                dst: Reg(1),
                addr: Expr::Const(0),
                kind: RmwKind::FetchAddZero,
                ann: HwAnnot::Amo(AmoBits {
                    aq: true,
                    rl: true,
                    sc: false,
                }),
            }]
        );
    }

    #[test]
    fn undefined_orders_are_unsupported() {
        use tricheck_litmus::{Expr, Reg};
        let mut t = TableMapping::new("loads-only");
        t.parse_line("ld rlx|acq|sc = ld").unwrap();
        let err = t.load(Reg(0), Expr::Const(0), MemOrder::Rel).unwrap_err();
        assert_eq!(
            err,
            CompileError::Unsupported {
                mapping: "loads-only",
                construct: "release-ordered load",
            }
        );
        assert!(t
            .rmw(
                Reg(0),
                Expr::Const(0),
                RmwKind::Swap(Expr::Const(1)),
                MemOrder::Sc
            )
            .is_err());
    }

    #[test]
    fn malformed_lines_name_the_problem() {
        let mut t = TableMapping::new("m");
        for (line, needle) in [
            ("ld rlx", "expected '<op> <orders> = <steps>'"),
            ("mov rlx = ld", "unknown operation 'mov'"),
            ("ld = ld", "missing memory orders"),
            ("ld weak = ld", "unknown memory order 'weak'"),
            ("ld rlx = st", "unknown instruction 'st' in a 'ld' entry"),
            ("ld rlx = mfencee", "unknown instruction 'mfencee'"),
            ("ld rlx = fence x,rw", "unknown access-type set 'x'"),
            ("ld rlx = amo.ld.aq.aq", "duplicate AMO ordering bit"),
            ("ld rlx = amo.ld.zz", "unknown AMO ordering bit '.zz'"),
            ("ld rlx = mfence", "exactly one access step, found 0"),
            ("ld rlx = ld; ld", "exactly one access step, found 2"),
            ("st rlx = st; ; mfence", "empty instruction"),
        ] {
            let err = t.parse_line(line).unwrap_err();
            assert!(err.contains(needle), "{line:?} → {err}");
        }
        t.parse_line("ld rlx = ld").unwrap();
        let err = t.parse_line("ld rlx|sc = ld").unwrap_err();
        assert!(
            err.contains("duplicate 'ld' entry for order 'rlx'"),
            "{err}"
        );
    }
}
