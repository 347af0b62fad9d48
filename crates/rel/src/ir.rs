//! A declarative IR for axiomatic memory models.
//!
//! An axiomatic model in the style of Alglave et al.'s *Herding Cats*
//! framework is *data*: a list of named derived relations built from a
//! small algebra over base relations, plus a list of axioms (acyclicity,
//! irreflexivity, emptiness) over those relations. This module provides
//! that data type — [`ModelIr`] — together with an evaluator that judges
//! one candidate execution at a time through a pluggable
//! [`BaseRelations`] binding.
//!
//! # Grammar
//!
//! ```text
//! model  ::= def* axiom+
//! def    ::= name ":=" rel
//! axiom  ::= name ":" ("acyclic" | "irreflexive" | "empty") "(" rel ")"
//!
//! rel    ::= base-name            named base relation from the binding
//!          | ref-name             an earlier def
//!          | "0" | "id"           empty / identity relation
//!          | set "×" set          cross product
//!          | rel "∪" rel | rel "∩" rel | rel "\" rel
//!          | rel ";" rel          relational composition
//!          | rel "⁻¹"             inverse
//!          | rel "⁺" | rel "*" | rel "?"   closures (trans / refl-trans / refl)
//!          | "[" set "]" rel "[" set "]"   domain/range restriction
//!
//! set    ::= base-name            named event set from the binding
//!          | "U" | "∅"            universe / empty set
//!          | set "∪" set | set "∩" set | set "\" set
//! ```
//!
//! Base relations and sets are resolved by name against the binding, so
//! the same model text can be evaluated over any execution
//! representation that can produce its bases. Which names exist is a
//! contract between the model author and the binding; referencing a name
//! the binding does not provide is reported as an evaluation panic (a
//! model definition bug, not a data error).
//!
//! # Worked example: a TSO-like machine
//!
//! ```
//! use tricheck_rel::ir::{AxiomKind, ModelIr, RelExpr, SetExpr};
//! use tricheck_rel::{EventSet, Relation};
//!
//! fn rel(name: &'static str) -> RelExpr { RelExpr::base(name) }
//!
//! // ppo = po \ (W × R): everything except write→read stays ordered.
//! let ppo = rel("po").minus(RelExpr::cross(SetExpr::base("W"), SetExpr::base("R")));
//! let model = ModelIr::new("toy-tso")
//!     .define("ppo", ppo)
//!     .define("ghb", RelExpr::reference("ppo").union(rel("rfe")).union(rel("fr")).plus())
//!     .axiom("GlobalHappensBefore", AxiomKind::Irreflexive, RelExpr::reference("ghb"));
//!
//! // A binding supplies the bases; here a hand-rolled store-buffering
//! // witness: two threads, each a write then a read of the other
//! // location, both reads seeing the initial state (events 0,1 writes;
//! // 2,3 reads; rf from an implicit init elsewhere so fr points at the
//! // remote writes).
//! struct Sb;
//! impl tricheck_rel::ir::BaseRelations for Sb {
//!     fn universe(&self) -> usize { 4 }
//!     fn rel(&self, name: &str) -> Option<Relation> {
//!         Some(match name {
//!             "po" => Relation::from_pairs(4, [(0, 2), (1, 3)]),
//!             "rfe" => Relation::empty(4),
//!             "fr" => Relation::from_pairs(4, [(2, 1), (3, 0)]),
//!             _ => return None,
//!         })
//!     }
//!     fn set(&self, name: &str) -> Option<EventSet> {
//!         Some(match name {
//!             "W" => EventSet::from_ids(4, [0, 1]),
//!             "R" => EventSet::from_ids(4, [2, 3]),
//!             _ => return None,
//!         })
//!     }
//! }
//!
//! // TSO relaxes W→R, so the store-buffering cycle is consistent.
//! assert!(model.consistent(&Sb));
//! ```
//!
//! The production models live next to their bindings:
//! `tricheck_c11::C11Model::ir()` and `tricheck_uarch`'s
//! `build_uarch_ir` (one IR per microarchitecture configuration), and
//! the x86-TSO model of `models/x86-tso.cat` — see the crate docs of
//! [`crate`](self) for the worked ARMv7 A9-like definition.

use std::fmt;
use std::rc::Rc;

use crate::{EventSet, Relation};

/// A set-valued expression over named base event sets.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SetExpr {
    /// A named base set resolved by the [`BaseRelations`] binding
    /// (e.g. `"R"`, `"W"`, `"amo-rl"`).
    Base(&'static str),
    /// All events.
    Universe,
    /// No events.
    Empty,
    /// Set union.
    Union(Box<SetExpr>, Box<SetExpr>),
    /// Set intersection.
    Inter(Box<SetExpr>, Box<SetExpr>),
    /// Set difference.
    Minus(Box<SetExpr>, Box<SetExpr>),
}

impl SetExpr {
    /// A named base set.
    #[must_use]
    pub fn base(name: &'static str) -> Self {
        SetExpr::Base(name)
    }

    /// `self ∪ other`.
    #[must_use]
    pub fn union(self, other: SetExpr) -> Self {
        SetExpr::Union(Box::new(self), Box::new(other))
    }

    /// `self ∩ other`.
    #[must_use]
    pub fn inter(self, other: SetExpr) -> Self {
        SetExpr::Inter(Box::new(self), Box::new(other))
    }

    /// `self \ other`.
    #[must_use]
    pub fn minus(self, other: SetExpr) -> Self {
        SetExpr::Minus(Box::new(self), Box::new(other))
    }
}

impl fmt::Display for SetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetExpr::Base(name) => f.write_str(name),
            SetExpr::Universe => f.write_str("U"),
            SetExpr::Empty => f.write_str("∅"),
            SetExpr::Union(a, b) => write!(f, "({a} ∪ {b})"),
            SetExpr::Inter(a, b) => write!(f, "({a} ∩ {b})"),
            SetExpr::Minus(a, b) => write!(f, "({a} \\ {b})"),
        }
    }
}

/// A relation-valued expression: the operators of the IR grammar.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RelExpr {
    /// A named base relation resolved by the [`BaseRelations`] binding
    /// (e.g. `"po"`, `"rf"`, `"fence-cum"`).
    Base(&'static str),
    /// A reference to an earlier definition of the enclosing
    /// [`ModelIr`].
    Ref(&'static str),
    /// The empty relation.
    Empty,
    /// The identity relation.
    Id,
    /// Cross product `dom × rng`.
    Cross(SetExpr, SetExpr),
    /// Union.
    Union(Box<RelExpr>, Box<RelExpr>),
    /// Intersection.
    Inter(Box<RelExpr>, Box<RelExpr>),
    /// Difference.
    Minus(Box<RelExpr>, Box<RelExpr>),
    /// Relational composition `a ; b`.
    Seq(Box<RelExpr>, Box<RelExpr>),
    /// Inverse.
    Inverse(Box<RelExpr>),
    /// Transitive closure `a⁺`.
    Plus(Box<RelExpr>),
    /// Reflexive-transitive closure `a*`.
    Star(Box<RelExpr>),
    /// Reflexive closure `a?`.
    Opt(Box<RelExpr>),
    /// Domain/range restriction `[dom] a [rng]`.
    Restrict(Box<RelExpr>, SetExpr, SetExpr),
}

impl RelExpr {
    /// A named base relation.
    #[must_use]
    pub fn base(name: &'static str) -> Self {
        RelExpr::Base(name)
    }

    /// A reference to an earlier [`ModelIr`] definition.
    #[must_use]
    pub fn reference(name: &'static str) -> Self {
        RelExpr::Ref(name)
    }

    /// Cross product of two sets as a relation.
    #[must_use]
    pub fn cross(dom: SetExpr, rng: SetExpr) -> Self {
        RelExpr::Cross(dom, rng)
    }

    /// `self ∪ other`.
    #[must_use]
    pub fn union(self, other: RelExpr) -> Self {
        RelExpr::Union(Box::new(self), Box::new(other))
    }

    /// `self ∩ other`.
    #[must_use]
    pub fn inter(self, other: RelExpr) -> Self {
        RelExpr::Inter(Box::new(self), Box::new(other))
    }

    /// `self \ other`.
    #[must_use]
    pub fn minus(self, other: RelExpr) -> Self {
        RelExpr::Minus(Box::new(self), Box::new(other))
    }

    /// `self ; other` (relational composition).
    #[must_use]
    pub fn seq(self, other: RelExpr) -> Self {
        RelExpr::Seq(Box::new(self), Box::new(other))
    }

    /// `self⁻¹`.
    #[must_use]
    pub fn inverse(self) -> Self {
        RelExpr::Inverse(Box::new(self))
    }

    /// `self⁺` (one or more steps).
    #[must_use]
    pub fn plus(self) -> Self {
        RelExpr::Plus(Box::new(self))
    }

    /// `self*` (zero or more steps).
    #[must_use]
    pub fn star(self) -> Self {
        RelExpr::Star(Box::new(self))
    }

    /// `self?` (`self ∪ id`).
    #[must_use]
    pub fn opt(self) -> Self {
        RelExpr::Opt(Box::new(self))
    }

    /// `[dom] self [rng]`.
    #[must_use]
    pub fn restrict(self, dom: SetExpr, rng: SetExpr) -> Self {
        RelExpr::Restrict(Box::new(self), dom, rng)
    }
}

impl fmt::Display for RelExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelExpr::Base(name) | RelExpr::Ref(name) => f.write_str(name),
            RelExpr::Empty => f.write_str("0"),
            RelExpr::Id => f.write_str("id"),
            RelExpr::Cross(a, b) => write!(f, "({a} × {b})"),
            RelExpr::Union(a, b) => write!(f, "({a} ∪ {b})"),
            RelExpr::Inter(a, b) => write!(f, "({a} ∩ {b})"),
            RelExpr::Minus(a, b) => write!(f, "({a} \\ {b})"),
            RelExpr::Seq(a, b) => write!(f, "({a} ; {b})"),
            RelExpr::Inverse(a) => write!(f, "{a}⁻¹"),
            RelExpr::Plus(a) => write!(f, "{a}⁺"),
            RelExpr::Star(a) => write!(f, "{a}*"),
            RelExpr::Opt(a) => write!(f, "{a}?"),
            RelExpr::Restrict(a, dom, rng) => write!(f, "[{dom}]{a}[{rng}]"),
        }
    }
}

/// The constraint an [`Axiom`] places on its relation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AxiomKind {
    /// The relation, viewed as a graph, must have no cycle.
    Acyclic,
    /// The relation must contain no pair `(a, a)`.
    Irreflexive,
    /// The relation must contain no pair at all.
    Empty,
}

impl fmt::Display for AxiomKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxiomKind::Acyclic => f.write_str("acyclic"),
            AxiomKind::Irreflexive => f.write_str("irreflexive"),
            AxiomKind::Empty => f.write_str("empty"),
        }
    }
}

/// One named axiom of a model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Axiom {
    /// The axiom's name, reported on violation (e.g. `"Coherence"`).
    pub name: &'static str,
    /// The constraint kind.
    pub kind: AxiomKind,
    /// The relation the constraint applies to.
    pub rel: RelExpr,
}

impl fmt::Display for Axiom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}({})", self.name, self.kind, self.rel)
    }
}

/// A complete declarative model: named derived-relation definitions
/// (evaluated in order; later ones may [`RelExpr::Ref`] earlier ones)
/// plus the axioms that judge an execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ModelIr {
    name: String,
    defs: Vec<(&'static str, RelExpr)>,
    axioms: Vec<Axiom>,
}

impl ModelIr {
    /// An empty model with a display name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ModelIr {
            name: name.into(),
            defs: Vec::new(),
            axioms: Vec::new(),
        }
    }

    /// Appends a named derived-relation definition.
    #[must_use]
    pub fn define(mut self, name: &'static str, expr: RelExpr) -> Self {
        self.defs.push((name, expr));
        self
    }

    /// Appends an axiom.
    #[must_use]
    pub fn axiom(mut self, name: &'static str, kind: AxiomKind, rel: RelExpr) -> Self {
        self.axioms.push(Axiom { name, kind, rel });
        self
    }

    /// The model's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The derived-relation definitions, in evaluation order.
    #[must_use]
    pub fn defs(&self) -> &[(&'static str, RelExpr)] {
        &self.defs
    }

    /// The model's axioms, in check order.
    #[must_use]
    pub fn axioms(&self) -> &[Axiom] {
        &self.axioms
    }

    /// Checks every axiom against one execution (as presented by the
    /// binding), returning the first violated axiom's name.
    ///
    /// Evaluation is lazy and memoized: a definition (and each base the
    /// binding provides) is computed at most once per call, and only
    /// when an axiom actually reaches it — so an execution rejected by
    /// an early axiom never pays for the relations of later ones.
    ///
    /// # Errors
    ///
    /// The name of the first violated axiom.
    ///
    /// # Panics
    ///
    /// Panics if the model references a base relation, base set, or
    /// definition the binding (or earlier defs) does not provide — a
    /// model-definition bug, not a property of the execution.
    pub fn check(&self, binding: &impl BaseRelations) -> Result<(), &'static str> {
        let mut ctx = EvalCtx {
            binding,
            def_exprs: &self.defs,
            def_values: Vec::new(),
            resolving: Vec::new(),
            rel_cache: Vec::new(),
            set_cache: Vec::new(),
        };
        for axiom in &self.axioms {
            let rel = ctx.eval_rel(&axiom.rel);
            let holds = match axiom.kind {
                AxiomKind::Acyclic => rel.is_acyclic(),
                AxiomKind::Irreflexive => rel.is_irreflexive(),
                AxiomKind::Empty => rel.is_empty(),
            };
            if !holds {
                return Err(axiom.name);
            }
        }
        Ok(())
    }

    /// `true` if every axiom holds.
    #[must_use]
    pub fn consistent(&self, binding: &impl BaseRelations) -> bool {
        self.check(binding).is_ok()
    }
}

impl fmt::Display for ModelIr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model {}", self.name)?;
        for (name, expr) in &self.defs {
            writeln!(f, "  {name} := {expr}")?;
        }
        for axiom in &self.axioms {
            writeln!(f, "  {axiom}")?;
        }
        Ok(())
    }
}

/// The binding between a model's named bases and one concrete candidate
/// execution — the pluggable half of the evaluator.
///
/// Implementations are expected to be cheap to query repeatedly: the
/// evaluator memoizes each base name per [`ModelIr::check`] call, so a
/// base is computed at most once per execution regardless of how often
/// the model text mentions it.
pub trait BaseRelations {
    /// Number of events the execution's relations range over.
    fn universe(&self) -> usize;

    /// The base relation with the given name, or `None` if the binding
    /// does not define it.
    fn rel(&self, name: &str) -> Option<Relation>;

    /// The base event set with the given name, or `None` if the binding
    /// does not define it.
    fn set(&self, name: &str) -> Option<EventSet>;
}

/// Per-check evaluation state: lazily resolved defs plus memoized base
/// lookups. The caches are linear-scanned vectors, not hash maps — a
/// model names at most a couple of dozen bases and defs, and pointer
/// comparison on the interned `&'static str` names settles most probes
/// in one step.
struct EvalCtx<'b, B> {
    binding: &'b B,
    def_exprs: &'b [(&'static str, RelExpr)],
    def_values: Vec<(&'static str, Rc<Relation>)>,
    /// Defs currently being resolved, to turn a definition cycle into a
    /// clean panic instead of unbounded recursion.
    resolving: Vec<&'static str>,
    rel_cache: Vec<(&'static str, Rc<Relation>)>,
    set_cache: Vec<(&'static str, EventSet)>,
}

/// One-step name probe: `&'static str` literals are interned, so two
/// mentions of the same base usually share an address.
fn name_eq(a: &'static str, b: &'static str) -> bool {
    std::ptr::eq(a.as_ptr(), b.as_ptr()) && a.len() == b.len() || a == b
}

impl<'b, B: BaseRelations> EvalCtx<'b, B> {
    /// Resolves a definition by name, evaluating (and memoizing) it on
    /// first use. A reference cycle among definitions is a
    /// model-definition bug and panics (like an unknown name) rather
    /// than recursing without bound.
    fn def_value(&mut self, name: &'static str) -> Rc<Relation> {
        if let Some((_, cached)) = self.def_values.iter().find(|(n, _)| name_eq(n, name)) {
            return Rc::clone(cached);
        }
        assert!(
            !self.resolving.iter().any(|n| name_eq(n, name)),
            "model definition '{name}' references itself (cycle: {:?})",
            self.resolving
        );
        let defs = self.def_exprs;
        let expr = defs.iter().find(|(n, _)| name_eq(n, name)).map_or_else(
            || panic!("model references undefined relation '{name}'"),
            |(_, e)| e,
        );
        self.resolving.push(name);
        let value = self.eval_rel(expr);
        self.resolving.pop();
        self.def_values.push((name, Rc::clone(&value)));
        value
    }
    fn base_rel(&mut self, name: &'static str) -> Rc<Relation> {
        if let Some((_, cached)) = self.rel_cache.iter().find(|(n, _)| name_eq(n, name)) {
            return Rc::clone(cached);
        }
        let value = self
            .binding
            .rel(name)
            .unwrap_or_else(|| panic!("model references unknown base relation '{name}'"));
        assert_eq!(
            value.universe(),
            self.binding.universe(),
            "base relation '{name}' has the wrong universe"
        );
        let value = Rc::new(value);
        self.rel_cache.push((name, Rc::clone(&value)));
        value
    }

    fn base_set(&mut self, name: &'static str) -> EventSet {
        if let Some((_, cached)) = self.set_cache.iter().find(|(n, _)| name_eq(n, name)) {
            return *cached;
        }
        let value = self
            .binding
            .set(name)
            .unwrap_or_else(|| panic!("model references unknown base set '{name}'"));
        assert_eq!(
            value.universe(),
            self.binding.universe(),
            "base set '{name}' has the wrong universe"
        );
        self.set_cache.push((name, value));
        value
    }

    fn eval_set(&mut self, expr: &SetExpr) -> EventSet {
        let n = self.binding.universe();
        match expr {
            SetExpr::Base(name) => self.base_set(name),
            SetExpr::Universe => EventSet::full(n),
            SetExpr::Empty => EventSet::empty(n),
            SetExpr::Union(a, b) => self.eval_set(a).union(self.eval_set(b)),
            SetExpr::Inter(a, b) => self.eval_set(a).intersect(self.eval_set(b)),
            SetExpr::Minus(a, b) => self.eval_set(a).minus(self.eval_set(b)),
        }
    }

    fn eval_rel(&mut self, expr: &RelExpr) -> Rc<Relation> {
        let n = self.binding.universe();
        match expr {
            RelExpr::Base(name) => self.base_rel(name),
            RelExpr::Ref(name) => self.def_value(name),
            RelExpr::Empty => Rc::new(Relation::empty(n)),
            RelExpr::Id => Rc::new(Relation::identity(n)),
            RelExpr::Cross(a, b) => Rc::new(Relation::cross(self.eval_set(a), self.eval_set(b))),
            RelExpr::Union(a, b) => Rc::new(self.eval_rel(a).union(&self.eval_rel(b))),
            RelExpr::Inter(a, b) => Rc::new(self.eval_rel(a).intersect(&self.eval_rel(b))),
            RelExpr::Minus(a, b) => Rc::new(self.eval_rel(a).minus(&self.eval_rel(b))),
            RelExpr::Seq(a, b) => Rc::new(self.eval_rel(a).compose(&self.eval_rel(b))),
            RelExpr::Inverse(a) => Rc::new(self.eval_rel(a).inverse()),
            RelExpr::Plus(a) => Rc::new(self.eval_rel(a).transitive_closure()),
            RelExpr::Star(a) => Rc::new(self.eval_rel(a).reflexive_transitive_closure()),
            RelExpr::Opt(a) => Rc::new(self.eval_rel(a).maybe()),
            RelExpr::Restrict(a, dom, rng) => {
                let dom = self.eval_set(dom);
                let rng = self.eval_set(rng);
                Rc::new(self.eval_rel(a).restrict(dom, rng))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed four-event binding: 0,1 writes; 2,3 reads; po 0→2, 1→3.
    struct Toy {
        fr_back: bool,
    }

    impl BaseRelations for Toy {
        fn universe(&self) -> usize {
            4
        }

        fn rel(&self, name: &str) -> Option<Relation> {
            Some(match name {
                "po" => Relation::from_pairs(4, [(0, 2), (1, 3)]),
                // Both reads see the (unmodeled) initial state, so no rf
                // edge lands inside this four-event universe.
                "rf" => Relation::empty(4),
                "fr" => {
                    if self.fr_back {
                        Relation::from_pairs(4, [(2, 1), (3, 0)])
                    } else {
                        Relation::empty(4)
                    }
                }
                _ => return None,
            })
        }

        fn set(&self, name: &str) -> Option<EventSet> {
            Some(match name {
                "R" => EventSet::from_ids(4, [2, 3]),
                "W" => EventSet::from_ids(4, [0, 1]),
                _ => return None,
            })
        }
    }

    fn sc_like() -> ModelIr {
        ModelIr::new("toy-sc")
            .define(
                "ghb",
                RelExpr::base("po")
                    .union(RelExpr::base("rf"))
                    .union(RelExpr::base("fr")),
            )
            .axiom("Sc", AxiomKind::Acyclic, RelExpr::reference("ghb"))
    }

    #[test]
    fn axioms_judge_executions() {
        // Without the fr back-edges the po∪rf∪fr graph is a DAG.
        assert!(sc_like().consistent(&Toy { fr_back: false }));
        // With them, 0→po 2→fr 1→po 3→fr 0 closes a cycle.
        assert_eq!(sc_like().check(&Toy { fr_back: true }), Err("Sc"));
    }

    #[test]
    fn tso_shape_relaxes_write_read() {
        // ppo = po \ (W × R): nothing of the cycle above remains ordered.
        let tso = ModelIr::new("toy-tso")
            .define(
                "ppo",
                RelExpr::base("po").minus(RelExpr::cross(SetExpr::base("W"), SetExpr::base("R"))),
            )
            .axiom(
                "Ghb",
                AxiomKind::Acyclic,
                RelExpr::reference("ppo")
                    .union(RelExpr::base("rf"))
                    .union(RelExpr::base("fr")),
            );
        assert!(tso.consistent(&Toy { fr_back: true }));
    }

    fn eval(expr: &RelExpr, binding: &Toy) -> Relation {
        let mut ctx = EvalCtx {
            binding,
            def_exprs: &[],
            def_values: Vec::new(),
            resolving: Vec::new(),
            rel_cache: Vec::new(),
            set_cache: Vec::new(),
        };
        Rc::try_unwrap(ctx.eval_rel(expr)).unwrap_or_else(|rc| (*rc).clone())
    }

    #[test]
    fn operators_match_relation_algebra() {
        let b = Toy { fr_back: true };
        let cases = [
            (
                RelExpr::base("po").seq(RelExpr::base("fr")),
                Relation::from_pairs(4, [(0, 1), (1, 0)]),
            ),
            (
                RelExpr::base("po").inverse(),
                Relation::from_pairs(4, [(2, 0), (3, 1)]),
            ),
            (
                RelExpr::base("po").restrict(SetExpr::base("W"), SetExpr::Universe),
                Relation::from_pairs(4, [(0, 2), (1, 3)]),
            ),
            (RelExpr::Empty.star(), Relation::identity(4)),
            (
                RelExpr::base("po").opt(),
                Relation::from_pairs(4, [(0, 2), (1, 3)]).union(&Relation::identity(4)),
            ),
            (
                RelExpr::cross(
                    SetExpr::base("W"),
                    SetExpr::base("R").minus(SetExpr::base("W")),
                ),
                Relation::from_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
            ),
            (
                RelExpr::base("po")
                    .union(RelExpr::base("fr"))
                    .plus()
                    .inter(RelExpr::Id),
                Relation::identity(4), // the 0→2→1→3→0 cycle touches every event
            ),
        ];
        for (expr, expected) in cases {
            assert_eq!(eval(&expr, &b), expected, "{expr}");
        }
    }

    #[test]
    fn display_renders_the_grammar() {
        let model = sc_like();
        let text = model.to_string();
        assert!(text.contains("model toy-sc"));
        assert!(text.contains("ghb := ((po ∪ rf) ∪ fr)"));
        assert!(text.contains("Sc: acyclic(ghb)"));
    }

    #[test]
    #[should_panic(expected = "unknown base relation")]
    fn unknown_base_is_a_model_bug() {
        let model = ModelIr::new("bad").axiom("a", AxiomKind::Empty, RelExpr::base("nope"));
        let _ = model.check(&Toy { fr_back: false });
    }

    #[test]
    #[should_panic(expected = "undefined relation")]
    fn forward_reference_is_a_model_bug() {
        let model = ModelIr::new("bad").axiom("a", AxiomKind::Empty, RelExpr::reference("later"));
        let _ = model.check(&Toy { fr_back: false });
    }

    #[test]
    #[should_panic(expected = "references itself")]
    fn definition_cycles_panic_instead_of_recursing() {
        let model = ModelIr::new("bad")
            .define("a", RelExpr::reference("b"))
            .define("b", RelExpr::reference("a"))
            .axiom("x", AxiomKind::Empty, RelExpr::reference("a"));
        let _ = model.check(&Toy { fr_back: false });
    }

    #[test]
    #[should_panic(expected = "references itself")]
    fn self_reference_panics() {
        let model = ModelIr::new("bad")
            .define("a", RelExpr::reference("a").plus())
            .axiom("x", AxiomKind::Empty, RelExpr::reference("a"));
        let _ = model.check(&Toy { fr_back: false });
    }
}
