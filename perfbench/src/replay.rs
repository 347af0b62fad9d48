//! The traced replay: one sweep of a workload, done layer by layer
//! through each crate's public functions, with every call wrapped in a
//! benchmark-owned span.
//!
//! The replay mirrors the engine's work item for item — one C11 verdict
//! per test, one compile per (test, mapping), one shared space per
//! distinct program when the engine would share, the same streaming
//! paths when it would not, and per-shard stores and spaces on the
//! sharded workload — so its counts must equal the engine's
//! `SweepStats` and its rows the reference. It runs serially; its spans
//! are per-layer busy time, not a share of the engine's wall time.
//! No span nests inside another. One span repeats work instead of
//! splitting it: the store's public API decodes a stored snapshot inside
//! `DiskStore::load_space` (the `Load` span) and hands out no raw bytes,
//! so the `Decode` span times a second `ExecutionSpace::from_snapshot`
//! on the loaded space's re-encoding, which is byte-identical to the
//! stored snapshot. On `store_warm` the layers' seconds therefore add up
//! to the replay's busy time plus `litmus.decode_s`.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::Path;
use std::time::{Duration, Instant};

use tricheck_c11::C11Model;
use tricheck_compiler::{compile, Mapping};
use tricheck_core::{
    report, results_from_items, C11Cached, Classification, MatrixStack, OutcomeMode, SpaceStore,
    StoreStats, SweepStats, SHARING_BREAK_EVEN,
};
use tricheck_dist::{shard_of, DiskStore};
use tricheck_isa::HwAnnot;
use tricheck_litmus::codec::fnv1a;
use tricheck_litmus::{ExecutionSpace, LitmusTest, Outcome, Program};

use crate::workload::{csv_rows, Workload};

/// The layers the replay times, one span kind per crate boundary.
#[derive(Clone, Copy, Debug)]
pub enum Layer {
    /// `ExecutionSpace::pruned` + `matching` / `outcome_groups`.
    Enum,
    /// `ExecutionSpace::from_snapshot` on a loaded space's re-encoding
    /// (byte-identical to the stored snapshot). This repeats the decode
    /// that `Load` already contains.
    Decode,
    /// `C11Model::permits_target` / `permitted_outcomes`.
    C11,
    /// `tricheck_compiler::compile`.
    Compile,
    /// The first `UarchModel::compiled()` call of each model.
    KernelCompile,
    /// `UarchModel::observes_in` / `observable_outcomes_in` on a shared
    /// space.
    Judge,
    /// The streaming `UarchModel::observes` / `observable_outcomes`.
    Stream,
    /// `DiskStore::open` / `load_space` / `load_c11`, and the snapshot
    /// digest the engine keeps of each loaded space.
    Load,
    /// `DiskStore::save_space` / `save_c11` / `flush`, and the digest
    /// comparison that decides what to save.
    Save,
}

const LAYERS: usize = 9;

/// Busy time and work counts of one replay.
#[derive(Default, Debug)]
pub struct Replay {
    busy: [Duration; LAYERS],
    /// Execution spaces created or loaded.
    pub spaces: usize,
    /// Candidates in each space's first materialized view.
    pub candidates: usize,
    /// Search branches cut by pruning, over every space.
    pub pruned_branches: usize,
    /// Bytes of the stored snapshots decoded.
    pub snapshot_bytes: usize,
    /// C11 evaluations (verdicts not served by a store).
    pub c11_evals: usize,
    /// Compilations.
    pub compiles: usize,
    /// Distinct compiled programs, per matrix (and shard).
    pub distinct_programs: usize,
    /// Model kernels compiled.
    pub kernels: usize,
    /// (space, model) judgements on shared spaces.
    pub streams: usize,
    /// Store counters, summed over every store the replay opened.
    pub store: StoreStats,
    /// Bytes on disk after the store fill.
    pub bytes_written: u64,
}

impl Replay {
    fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.busy[layer as usize] += start.elapsed();
        out
    }

    /// Busy seconds spent in `layer`.
    #[must_use]
    pub fn seconds(&self, layer: Layer) -> f64 {
        self.busy[layer as usize].as_secs_f64()
    }
}

/// One shared space of the replay, with the digest of the snapshot it
/// was loaded from (if it was).
struct Space {
    space: ExecutionSpace<HwAnnot>,
    loaded_digest: Option<u64>,
}

/// Replays one sweep of `workload` over `tests` (for `store_warm`, the
/// cold fill set-up does and then one warm sweep, in a new store at
/// `store_dir`, which must not exist yet). Returns the replay and the
/// rows of every replayed sweep.
///
/// # Errors
///
/// A message if the store directory exists already or cannot be
/// created or opened.
pub fn replay(
    workload: Workload,
    tests: &[LitmusTest],
    store_dir: &Path,
) -> Result<(Replay, Vec<Vec<String>>), String> {
    let mode = workload.outcome_mode();
    let mut r = Replay::default();
    let mut sweeps = Vec::new();
    let Some(shards) = workload.shards() else {
        let mut rows = Vec::new();
        for &spec in workload.matrices() {
            let stacks = spec.stacks();
            let items = r.matrix(tests, &stacks, mode, None);
            rows.extend(rows_of(tests, &stacks, &items));
        }
        sweeps.push(rows);
        return Ok((r, sweeps));
    };
    // A directory that never held deleted files: file creation right
    // after a mass deletion would time the filesystem, not the store.
    if store_dir.exists() {
        return Err(format!(
            "replay store {} already exists",
            store_dir.display()
        ));
    }
    std::fs::create_dir_all(store_dir)
        .map_err(|e| format!("creating {}: {e}", store_dir.display()))?;
    for phase in ["fill", "warm"] {
        let mut rows = Vec::new();
        for &spec in workload.matrices() {
            let n_stacks = spec.stacks().len();
            let mut items = vec![None; tests.len() * n_stacks];
            for shard in 0..shards {
                let dealt: Vec<usize> = (0..tests.len())
                    .filter(|&i| shard_of(&tests[i], shards) == shard)
                    .collect();
                let shard_tests: Vec<LitmusTest> =
                    dealt.iter().map(|&i| tests[i].clone()).collect();
                let store = r
                    .time(Layer::Load, || DiskStore::open(store_dir))
                    .map_err(|e| e.to_string())?;
                let stacks = spec.stacks();
                let shard_items = r.matrix(&shard_tests, &stacks, mode, Some(&store));
                for (local, &global) in dealt.iter().enumerate() {
                    items[global * n_stacks..(global + 1) * n_stacks]
                        .copy_from_slice(&shard_items[local * n_stacks..(local + 1) * n_stacks]);
                }
                r.store = r.store.merged(&store.stats());
            }
            rows.extend(rows_of(tests, &spec.stacks(), &items));
        }
        if phase == "fill" {
            r.bytes_written = dir_bytes(store_dir);
        }
        sweeps.push(rows);
    }
    Ok((r, sweeps))
}

fn rows_of(
    tests: &[LitmusTest],
    stacks: &[MatrixStack<'_>],
    items: &[Option<Classification>],
) -> Vec<String> {
    let results = results_from_items(tests, stacks, items, SweepStats::default());
    csv_rows(&report::to_csv(&results), None)
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

impl Replay {
    /// Replays one engine sweep of `stacks` over `tests`, returning the
    /// per-item classifications in the engine's test-major order.
    fn matrix(
        &mut self,
        tests: &[LitmusTest],
        stacks: &[MatrixStack<'_>],
        mode: OutcomeMode,
        store: Option<&DiskStore>,
    ) -> Vec<Option<Classification>> {
        for stack in stacks {
            self.time(Layer::KernelCompile, || {
                let _ = stack.model.compiled();
            });
            self.kernels += 1;
        }
        // Mappings deduplicate by fat-pointer identity, as in the engine.
        let mut mappings: Vec<&dyn Mapping> = Vec::new();
        let mapping_of: Vec<usize> = stacks
            .iter()
            .map(|stack| {
                #[allow(ambiguous_wide_pointer_comparisons)]
                let found = mappings
                    .iter()
                    .position(|m| std::ptr::eq(*m, stack.mapping));
                found.unwrap_or_else(|| {
                    mappings.push(stack.mapping);
                    mappings.len() - 1
                })
            })
            .collect();
        let share = store.is_some()
            || (stacks.len() > 1 && stacks.len() / mappings.len() >= SHARING_BREAK_EVEN);

        let c11 = C11Model::new();
        let mut spaces: HashMap<Program<HwAnnot>, Space> = HashMap::new();
        let mut programs: HashSet<Program<HwAnnot>> = HashSet::new();
        let mut verdicts = Vec::with_capacity(tests.len());
        let mut items = Vec::with_capacity(tests.len() * stacks.len());
        for test in tests {
            let verdict = match store
                .and_then(|s| self.time(Layer::Load, || s.load_c11(test, mode)))
            {
                Some(cached) => cached,
                None => {
                    self.c11_evals += 1;
                    self.time(Layer::C11, || match mode {
                        OutcomeMode::Target => C11Cached::Target(c11.permits_target(test)),
                        OutcomeMode::FullOutcomes => C11Cached::Full(c11.permitted_outcomes(test)),
                    })
                }
            };
            let compiled: Vec<_> = mappings
                .iter()
                .map(|&mapping| {
                    self.compiles += 1;
                    self.time(Layer::Compile, || compile(test, mapping))
                })
                .collect();
            for c in compiled.iter().flatten() {
                if !programs.contains(c.program()) {
                    programs.insert(c.program().clone());
                }
            }
            for (stack, &m) in stacks.iter().zip(&mapping_of) {
                let Ok(c) = &compiled[m] else {
                    items.push(None);
                    continue;
                };
                let model = &stack.model;
                let class = match &verdict {
                    C11Cached::Target(permitted) => {
                        let observable = if share {
                            let space = self.view(&mut spaces, c.program(), store, |s| {
                                s.matching(c.target()).len()
                            });
                            self.streams += 1;
                            self.time(Layer::Judge, || model.observes_in(space, c.target()))
                        } else {
                            self.time(Layer::Stream, || model.observes(c.program(), c.target()))
                        };
                        match (*permitted, observable) {
                            (false, true) => Classification::Bug,
                            (true, false) => Classification::OverlyStrict,
                            _ => Classification::Equivalent,
                        }
                    }
                    C11Cached::Full(permitted) => {
                        let observable = if share {
                            let space = self.view(&mut spaces, c.program(), store, |s| {
                                let groups = s.outcome_groups(c.observed());
                                groups.iter().map(|(_, members)| members.len()).sum()
                            });
                            self.streams += 1;
                            self.time(Layer::Judge, || {
                                model.observable_outcomes_in(space, c.observed())
                            })
                        } else {
                            self.time(Layer::Stream, || {
                                model.observable_outcomes(c.program(), c.observed())
                            })
                        };
                        classify_sets(permitted, &observable)
                    }
                };
                items.push(Some(class));
            }
            verdicts.push(verdict);
        }
        self.distinct_programs += programs.len();
        self.pruned_branches += spaces
            .values()
            .map(|s| s.space.stats().candidates_pruned)
            .sum::<usize>();
        if let Some(store) = store {
            for entry in spaces.values() {
                let grown = self.time(Layer::Save, || match entry.loaded_digest {
                    None => entry.space.stats().enumerations > 0,
                    Some(digest) => fnv1a(&entry.space.snapshot()) != digest,
                });
                if grown {
                    self.time(Layer::Save, || store.save_space(&entry.space));
                }
            }
            for (test, verdict) in tests.iter().zip(&verdicts) {
                self.time(Layer::Save, || store.save_c11(test, verdict));
            }
            self.time(Layer::Save, || store.flush());
        }
        items
    }

    /// The shared space of `program`, created (or loaded from `store`)
    /// on first use, after running the enumeration query `enumerate` on
    /// it under the enumeration span. On a space's first use the query's
    /// candidate count is added to [`Replay::candidates`].
    fn view<'s>(
        &mut self,
        spaces: &'s mut HashMap<Program<HwAnnot>, Space>,
        program: &Program<HwAnnot>,
        store: Option<&DiskStore>,
        enumerate: impl FnOnce(&ExecutionSpace<HwAnnot>) -> usize,
    ) -> &'s ExecutionSpace<HwAnnot> {
        let first = !spaces.contains_key(program);
        if first {
            let entry = match store.and_then(|s| self.time(Layer::Load, || s.load_space(program))) {
                Some(space) => {
                    let (bytes, digest) = self.time(Layer::Load, || {
                        let bytes = space.snapshot();
                        let digest = fnv1a(&bytes);
                        (bytes, digest)
                    });
                    self.snapshot_bytes += bytes.len();
                    let decoded = self.time(Layer::Decode, || {
                        ExecutionSpace::<HwAnnot>::from_snapshot(program.clone(), &bytes)
                    });
                    assert!(decoded.is_ok(), "a snapshot the store served must decode");
                    Space {
                        space: space.into_pruned(),
                        loaded_digest: Some(digest),
                    }
                }
                None => Space {
                    space: self.time(Layer::Enum, || ExecutionSpace::pruned(program.clone())),
                    loaded_digest: None,
                },
            };
            self.spaces += 1;
            spaces.insert(program.clone(), entry);
        }
        let space = &spaces[program].space;
        let candidates = self.time(Layer::Enum, || enumerate(space));
        if first {
            self.candidates += candidates;
        }
        space
    }
}

/// The set-level classification of a full-outcome comparison, as the
/// engine computes it.
fn classify_sets(permitted: &BTreeSet<Outcome>, observable: &BTreeSet<Outcome>) -> Classification {
    if observable.difference(permitted).next().is_some() {
        Classification::Bug
    } else if permitted.difference(observable).next().is_some() {
        Classification::OverlyStrict
    } else {
        Classification::Equivalent
    }
}
