//! Cross-commit golden for all ten methods' one answering body.
//!
//! The agreement suites compare execution paths *within* one build; this
//! suite pins every method's `AnsweringMethod::search` — serial and at 3
//! threads — against a fixture recorded on an earlier commit, so a refactor
//! of a shared search cannot change an answer, a guarantee or a work counter
//! on every path at once without a test noticing. Each fixture line is one
//! (method, mode, query, path): the guarantee, `QueryStats::work_counters()`
//! and every answer as `id:distance.to_bits()`. Only the modes a method
//! supports are rendered.
//!
//! `tree|` lines cover four of the five best-first trees (DSTree, iSAX2+,
//! SFA trie, R*-tree). They were first printed by `print_fixture` below on the commit
//! before the trees moved onto `hydra_storage::best_first`, and re-recorded
//! when its leaf scan started bounding every entry on its stored summary
//! (and iSAX2+ stopped rescanning its seed leaf): every `exact` and `ng`
//! line kept its guarantee and answer bits there, only the counters moved,
//! and the ε / δ-ε / budgeted answers moved within their guarantees. The
//! entry bounds of iSAX2+ come from the SAX table, so the fixture must
//! reproduce on both SIMD dispatch tiers. `method|` lines cover the other
//! six (UCR-Suite, MASS, Stepwise, ADS+, VA+file, M-tree) and were printed
//! on the commit before each method was folded into one `search` body;
//! they skip the budget × 3-thread pair, which the engine never runs. Stepwise's were re-recorded when its
//! refinement reads started being counted: only the last three counters
//! (sequential pages, random pages, bytes read) moved. ADS+'s were
//! re-recorded when SIMS started seeding its best-so-far from its `2k`
//! best-bounded series instead of the covering leaf and reading at page
//! granularity: every exact answer kept its ids and distance bits; the ε,
//! δ-ε and budgeted answers, which the visiting order decides, moved within
//! their guarantees, and so did the counters. The M-tree's were re-recorded
//! when its private search loop (and its parent-pivot pre-filter, which
//! saved no raw read, leaf or page here) folded into `best_first`: every exact and ng
//! line kept its guarantee and answer bits, and no leaf, internal-visit,
//! page or byte count rose; lower bounds rose, as entry bounds started being
//! counted; raw reads rose only on q09 and q10, where the k matches sit at
//! distance 0 and the entry slack refines bounds of exactly 0 (exact 72 →
//! 83 and 337 → 372, ng q09 5 → 16); and the ε and δ-ε answers moved within
//! their guarantees, as the pivot filters started pruning at `bsf · shrink`
//! (raw totals 5 216 → 4 606 and 4 844 → 3 804). Then the q09 lines of all
//! five trees (the duplicated series, whose k matches all sit at distance
//! 0) were re-recorded when the entry floor was clamped at 0, so a full
//! heap at threshold 0 stops refining entries bounded at 0: only raw reads
//! fell (DSTree, iSAX2+ and the SFA trie 24 → 5, the R*-tree 16 → 5, in
//! every mode; the M-tree 83 → 72 exact, 16 → 5 ng, 80 → 69 ε and 70 → 59
//! δ-ε), and every answer and guarantee kept its bits. ADS+'s lines were
//! re-recorded again when SIMS went to two resolutions (a coarse pass over
//! 6-bit symbols, certified seeds, a skip-sequential pass over the
//! survivors only): only their lower-bound counter moved, and only down,
//! as ADS+ now counts the full-resolution bounds it computes instead of
//! one per series (summed over the lines: exact 9 336 → 3 488, ε 9 336 →
//! 2 642, δ-ε 9 336 → 2 640, budgeted 4 668 → 1 744, ng 0 as before); every
//! answer, guarantee, raw read, page, byte, node and leaf count kept its
//! bits, serial and `intra3`, on both dispatch tiers and in debug. The `intra3` lines were
//! recorded while DSTree, iSAX2+, the SFA trie, UCR-Suite, ADS+ and the
//! VA+file still split a query over threads; they now search serially at
//! any thread count, so for all nine methods but MASS those lines equal the
//! serial ones by construction, and they stayed byte-identical. To re-record after an
//! intended change:
//!
//! ```text
//! cargo test -p hydra-integration --test tree_search_golden -- \
//!     --ignored --nocapture | grep -E '^(tree|method)\|' > tests/fixtures/tree_search_golden.txt
//! ```

use hydra_bench::MethodKind;
use hydra_core::{AnswerMode, Budget, Dataset, Query, QueryStats, Series};
use hydra_data::RandomWalkGenerator;
use hydra_integration::options;
use std::fmt::Write;

const FIXTURE: &str = include_str!("fixtures/tree_search_golden.txt");

/// Length 250 over 16 segments (uneven segment widths), with the inputs the
/// friendly random-walk suites avoid: a run of exact duplicates (more than a
/// leaf holds, so splits cannot separate them) and constant series.
const LEN: usize = 250;

fn golden_dataset() -> Dataset {
    let walks = RandomWalkGenerator::new(1401, LEN);
    let mut data = Dataset::empty(LEN);
    for i in 0..360u64 {
        data.push(walks.series(i).values());
        if i % 15 == 0 {
            // 24 scattered copies of one series (first at index 1).
            data.push(walks.series(1000).values());
        }
    }
    for level in [0.0f32, 0.0, 0.0, 1.5, -2.0] {
        data.push(&vec![level; LEN]);
    }
    data
}

fn golden_queries(data: &Dataset) -> Vec<Series> {
    let mut queries = RandomWalkGenerator::new(1402, LEN).series_batch(8);
    // A member, the duplicated series, a constant, and a perturbed member.
    queries.push(data.series(200).to_owned_series());
    queries.push(data.series(1).to_owned_series());
    queries.push(Series::new(vec![0.0; LEN]));
    let mut noisy = data.series(77).values().to_vec();
    for (i, v) in noisy.iter_mut().enumerate() {
        *v += 0.05 * ((i % 5) as f32 - 2.0);
    }
    queries.push(Series::new(noisy));
    queries
}

fn golden_modes() -> [(&'static str, AnswerMode, Option<Budget>); 5] {
    let epsilon = 0.25;
    [
        ("exact", AnswerMode::Exact, None),
        ("ng", AnswerMode::NgApproximate, None),
        ("eps", AnswerMode::EpsilonApproximate { epsilon }, None),
        (
            "delta-eps",
            AnswerMode::DeltaEpsilon {
                delta: 0.8,
                epsilon,
            },
            None,
        ),
        // 30 raw reads against leaves of 20: the budget trips mid-leaf.
        ("truncated", AnswerMode::Exact, Some(Budget::raw_reads(30))),
    ]
}

/// Appends one line per (mode the method supports, query, path) of `kind`.
/// `budget_intra` keeps the budget × 3-thread pair, which the engine never
/// runs (it answers budgeted queries serially); only the tree lines keep it.
fn render_kind(out: &mut String, prefix: &str, kind: MethodKind, budget_intra: bool) {
    let data = golden_dataset();
    let queries = golden_queries(&data);
    let method = kind.build_boxed(&data, &options(LEN)).unwrap();
    for (mode_name, mode, budget) in golden_modes() {
        if !kind.supports_mode(mode) {
            continue;
        }
        for (qi, series) in queries.iter().enumerate() {
            let query = Query::knn(series.clone(), 5)
                .with_mode(mode)
                .with_budget(budget);
            for (path, threads) in [("serial", 1), ("intra3", 3)] {
                if threads > 1 && budget.is_some() && !budget_intra {
                    continue;
                }
                let mut stats = QueryStats::default();
                let answers = method.search(&query, threads, &mut stats).unwrap();
                write!(
                    out,
                    "{prefix}|{}|{mode_name}|q{qi:02}|{path}|{:?}|{:?}|",
                    kind.name(),
                    answers.guarantee(),
                    stats.work_counters(),
                )
                .unwrap();
                for answer in answers.iter() {
                    write!(out, " {}:{}", answer.id, answer.distance.to_bits()).unwrap();
                }
                out.push('\n');
            }
        }
    }
}

fn render() -> String {
    let mut out = String::new();
    for kind in [
        MethodKind::DsTree,
        MethodKind::Isax2Plus,
        MethodKind::SfaTrie,
        MethodKind::RStarTree,
    ] {
        render_kind(&mut out, "tree", kind, true);
    }
    for kind in [
        MethodKind::UcrSuite,
        MethodKind::Mass,
        MethodKind::Stepwise,
        MethodKind::AdsPlus,
        MethodKind::VaPlusFile,
        MethodKind::MTree,
    ] {
        render_kind(&mut out, "method", kind, false);
    }
    out
}

#[test]
fn tree_searches_reproduce_the_recorded_fixture() {
    let rendered = render();
    for (i, (got, want)) in rendered.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {}", i + 1);
    }
    assert_eq!(rendered.lines().count(), FIXTURE.lines().count());
}

#[test]
#[ignore = "generator: prints the fixture for the commit it runs on"]
fn print_fixture() {
    print!("\n{}", render());
}
