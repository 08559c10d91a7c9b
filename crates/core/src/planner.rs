//! Join-order planning for the 2-way cascade.
//!
//! §6.1's footnote assumes the cascade evaluates join conditions "in the
//! optimal order" without saying how to find it. This module provides a
//! classic sampling-based greedy planner: pairwise predicate selectivities
//! are estimated on small uniform samples, then conditions are ordered so
//! the estimated intermediate result stays minimal — start with the most
//! selective condition, repeatedly append the connected condition whose
//! estimated growth factor is smallest.
//!
//! Reordering conjuncts never changes the query's semantics (the result is
//! the same set of tuples), only the cascade's intermediate sizes.

use mwsj_geom::Rect;
use mwsj_local::planesweep::sweep_join;
use mwsj_local::LocalRect;
use mwsj_query::{Query, Triple};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

/// Default number of rectangles sampled per relation for estimation.
pub const DEFAULT_SAMPLE: usize = 200;

/// Draws a seeded uniform sample of up to `sample_size` positions of
/// each relation (sizes `lens`, one shared RNG) and reads them through
/// `rect(relation, position)` — shared by the cascade-order planner and
/// the cost-based optimizer ([`crate::optimizer`], which also samples
/// stored datasets by storage position), so both see the same statistics.
pub(crate) fn sample_relations(
    lens: impl IntoIterator<Item = usize>,
    sample_size: usize,
    seed: u64,
    rect: impl Fn(usize, usize) -> Rect,
) -> Vec<Vec<Rect>> {
    let mut rng = StdRng::seed_from_u64(seed);
    lens.into_iter()
        .enumerate()
        .map(|(rel, n)| {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(&mut rng);
            idx.truncate(sample_size);
            idx.into_iter().map(|i| rect(rel, i)).collect()
        })
        .collect()
}

/// Estimates the selectivity of one triple on samples of its two
/// relations: the fraction of sampled pairs satisfying the predicate,
/// counted exactly in O(s log s + matches). A plane sweep at the
/// predicate's distance emits every pair within `d` — a superset of the
/// `ov` and `contains` matches — and each is re-checked by the predicate.
pub(crate) fn estimate_selectivity(t: &Triple, samples: &[Vec<Rect>]) -> f64 {
    let left = &samples[t.left.index()];
    let right = &samples[t.right.index()];
    if left.is_empty() || right.is_empty() {
        return 0.0;
    }
    let tagged = |rel: &[Rect]| -> Vec<LocalRect> { rel.iter().copied().zip(0..).collect() };
    let mut hits = 0usize;
    sweep_join(
        &tagged(left),
        &tagged(right),
        t.predicate.distance(),
        |_, _, a, b| hits += usize::from(t.predicate.eval(a, b)),
    );
    hits as f64 / (left.len() * right.len()) as f64
}

/// Returns a query with the same conditions reordered for the cascade:
/// greedy smallest-estimated-intermediate-first, keeping every prefix
/// connected (the cascade requires each step to touch a bound relation).
///
/// `relations[i]` is the dataset bound to position `i`; selectivities are
/// estimated on a seeded uniform sample of `sample_size` rectangles per
/// relation.
///
/// ```
/// use mwsj_core::planner::optimize_cascade_order;
/// use mwsj_geom::Rect;
/// use mwsj_query::Query;
///
/// let q = Query::parse("A ov B and B ov C").unwrap();
/// let a = vec![Rect::new(0.0, 10.0, 5.0, 5.0)];
/// let b = vec![Rect::new(4.0, 10.0, 5.0, 5.0)];
/// let c = vec![Rect::new(8.0, 10.0, 5.0, 5.0)];
/// let planned = optimize_cascade_order(&q, &[&a, &b, &c], 10, 7);
/// assert_eq!(planned.triples().len(), q.triples().len());
/// ```
#[must_use]
pub fn optimize_cascade_order(
    query: &Query,
    relations: &[&[Rect]],
    sample_size: usize,
    seed: u64,
) -> Query {
    assert_eq!(relations.len(), query.num_relations());
    let lens = relations.iter().map(|r| r.len());
    let samples = sample_relations(lens, sample_size, seed, |r, i| relations[r][i]);
    order_greedily(query, relations, |t| estimate_selectivity(t, &samples))
}

/// Like [`optimize_cascade_order`], but estimating selectivities from
/// [`mwsj_query::GridHistogram`] statistics instead of samples — the
/// catalog-statistics flavor: the histograms can be built once per dataset
/// and reused across queries.
#[must_use]
pub fn optimize_cascade_order_with_histograms(
    query: &Query,
    relations: &[&[Rect]],
    x_range: (f64, f64),
    y_range: (f64, f64),
    buckets: usize,
) -> Query {
    assert_eq!(relations.len(), query.num_relations());
    let hists: Vec<mwsj_query::GridHistogram> = relations
        .iter()
        .map(|rel| mwsj_query::GridHistogram::build(rel, x_range, y_range, buckets, buckets))
        .collect();
    order_greedily(query, relations, |t| {
        let (l, r) = (t.left.index(), t.right.index());
        let card = (relations[l].len() * relations[r].len()) as f64;
        if card == 0.0 {
            return 0.0;
        }
        // Contains implies overlap: the d = 0 estimate is its upper bound.
        hists[l].estimate_join(&hists[r], t.predicate.distance()) / card
    })
}

/// The shared greedy: order conditions smallest-estimated-growth-first,
/// keeping every prefix connected.
fn order_greedily(
    query: &Query,
    relations: &[&[Rect]],
    selectivity: impl Fn(&Triple) -> f64,
) -> Query {
    // Estimated output cardinality of each condition alone.
    let mut remaining: Vec<(Triple, f64)> = query
        .triples()
        .iter()
        .map(|t| {
            let sel = selectivity(t);
            let card = sel
                * relations[t.left.index()].len() as f64
                * relations[t.right.index()].len() as f64;
            (*t, card)
        })
        .collect();

    let mut ordered: Vec<Triple> = Vec::with_capacity(remaining.len());
    let mut bound = vec![false; query.num_relations()];
    while !remaining.is_empty() {
        let pick = if ordered.is_empty() {
            // Cheapest standalone join first.
            remaining
                .iter()
                .enumerate()
                .min_by(|(_, (_, a)), (_, (_, b))| a.partial_cmp(b).expect("finite"))
                .map(|(i, _)| i)
                .expect("non-empty")
        } else {
            // Among the conditions touching the bound set, pick the one
            // with the smallest growth: both-bound filters (growth <= 1)
            // first, then the smallest selectivity x new-relation-size.
            remaining
                .iter()
                .enumerate()
                .filter(|(_, (t, _))| bound[t.left.index()] || bound[t.right.index()])
                .min_by(|(_, (t1, _)), (_, (t2, _))| {
                    let growth = |t: &Triple| {
                        let both = bound[t.left.index()] && bound[t.right.index()];
                        if both {
                            // A filter can only shrink the intermediate.
                            0.0
                        } else {
                            let new = if bound[t.left.index()] {
                                t.right
                            } else {
                                t.left
                            };
                            selectivity(t) * relations[new.index()].len() as f64
                        }
                    };
                    growth(t1).partial_cmp(&growth(t2)).expect("finite")
                })
                .map(|(i, _)| i)
                .expect("connected query graph")
        };
        let (t, _) = remaining.remove(pick);
        bound[t.left.index()] = true;
        bound[t.right.index()] = true;
        ordered.push(t);
    }

    // Rebuild the query with the conditions in the new order. Declaring
    // every relation first pins the original position numbering, so the
    // caller's positional dataset bindings stay valid.
    let mut builder = Query::builder();
    for r in query.relations() {
        builder = builder.declare(query.name(r));
    }
    for t in &ordered {
        builder = builder.condition(t.predicate, query.name(t.left), query.name(t.right));
    }
    builder
        .build()
        .expect("reordering a valid query keeps it valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use proptest::prelude::*;
    use rand::Rng;

    fn relation(n: usize, seed: u64, side: f64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.random_range(0.0..1000.0 - side);
                let y = rng.random_range(side..1000.0);
                Rect::new(
                    x,
                    y,
                    rng.random_range(0.0..side),
                    rng.random_range(0.0..side),
                )
            })
            .collect()
    }

    #[test]
    fn reordering_preserves_semantics() {
        let q = Query::parse("A ov B and B ra(30) C and C ov D").unwrap();
        let a = relation(60, 1, 40.0);
        let b = relation(60, 2, 40.0);
        let c = relation(60, 3, 40.0);
        let d = relation(60, 4, 40.0);
        let planned = optimize_cascade_order(&q, &[&a, &b, &c, &d], 30, 9);
        assert_eq!(planned.triples().len(), 3);
        // Same relation names in the same positions.
        for i in 0..4u16 {
            assert_eq!(
                planned.name(mwsj_query::RelationId(i)),
                q.name(mwsj_query::RelationId(i))
            );
        }
        assert_eq!(
            reference::in_memory_join(&planned, &[&a, &b, &c, &d]),
            reference::in_memory_join(&q, &[&a, &b, &c, &d])
        );
    }

    #[test]
    fn planner_starts_with_the_most_selective_condition() {
        // B-C barely joins (tiny rectangles far apart classes); A-B joins a
        // lot (big rectangles). The planner must start with B-C.
        let a = relation(80, 11, 120.0);
        let b = relation(80, 12, 120.0);
        let c = vec![Rect::new(0.5, 1.0, 0.2, 0.2); 80]; // far corner, tiny
        let q = Query::parse("A ov B and B ov C").unwrap();
        let planned = optimize_cascade_order(&q, &[&a, &b, &c], 60, 5);
        let first = planned.triples()[0];
        assert_eq!(
            (planned.name(first.left), planned.name(first.right)),
            ("B", "C"),
            "planned order: {planned}"
        );
    }

    #[test]
    fn histogram_planner_agrees_on_the_selective_start() {
        let a = relation(80, 11, 120.0);
        let b = relation(80, 12, 120.0);
        let c = vec![Rect::new(0.5, 1.0, 0.2, 0.2); 80];
        let q = Query::parse("A ov B and B ov C").unwrap();
        let planned = optimize_cascade_order_with_histograms(
            &q,
            &[&a, &b, &c],
            (0.0, 1000.0),
            (0.0, 1000.0),
            16,
        );
        let first = planned.triples()[0];
        assert_eq!(
            (planned.name(first.left), planned.name(first.right)),
            ("B", "C"),
            "planned order: {planned}"
        );
        // And reordering preserves semantics here too.
        assert_eq!(
            reference::in_memory_join(&planned, &[&a, &b, &c]),
            reference::in_memory_join(&q, &[&a, &b, &c])
        );
    }

    /// The all-pairs count the plane sweep replaced, kept as the oracle.
    fn all_pairs_selectivity(t: &Triple, samples: &[Vec<Rect>]) -> f64 {
        let (left, right) = (&samples[t.left.index()], &samples[t.right.index()]);
        let hits = left
            .iter()
            .flat_map(|a| right.iter().filter(move |b| t.predicate.eval(a, b)))
            .count();
        if hits == 0 {
            return 0.0;
        }
        hits as f64 / (left.len() * right.len()) as f64
    }

    /// The sweep estimate equals the all-pairs estimate bit for bit, for
    /// every predicate kind and both orientations of `contains`.
    fn assert_sweep_exact(left: Vec<Rect>, right: Vec<Rect>) -> Result<(), TestCaseError> {
        let q =
            "A ov B and A ra(0.5) B and A ra(3) B and A ra(25) B and A contains B and B contains A";
        let samples = vec![left, right];
        for t in Query::parse(q).unwrap().triples() {
            let (sweep, oracle) = (
                estimate_selectivity(t, &samples),
                all_pairs_selectivity(t, &samples),
            );
            prop_assert_eq!(sweep.to_bits(), oracle.to_bits(), "{:?}", t.predicate);
        }
        Ok(())
    }

    /// With `snap`, corners are rounded to integers (on a quarter scale),
    /// which makes shared edges, equal and zero-width rectangles and gaps
    /// of exactly `d` common.
    fn rects(raw: &[(f64, f64, f64, f64)], snap: bool) -> Vec<Rect> {
        let s = |v: f64| if snap { (v / 4.0).round() } else { v };
        raw.iter()
            .map(|&(x, y, l, b)| Rect::new(s(x), s(y), s(l), s(b)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_sweep_selectivity_is_exact(
            l in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64, 0.0..15.0f64, 0.0..15.0f64), 0..60),
            r in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64, 0.0..15.0f64, 0.0..15.0f64), 0..60),
        ) {
            assert_sweep_exact(rects(&l, false), rects(&r, false))?;
            assert_sweep_exact(rects(&l, true), rects(&r, true))?;
        }
    }

    #[test]
    fn sweep_selectivity_is_exact_at_the_optimizer_sample_size() {
        assert_sweep_exact(relation(600, 31, 30.0), relation(600, 32, 30.0)).unwrap();
        assert_sweep_exact(relation(600, 33, 120.0), Vec::new()).unwrap();
    }

    #[test]
    fn sample_larger_than_relation_is_fine() {
        let q = Query::parse("A ov B").unwrap();
        let a = relation(5, 21, 40.0);
        let b = relation(5, 22, 40.0);
        let planned = optimize_cascade_order(&q, &[&a, &b], 1_000, 1);
        assert_eq!(planned.triples().len(), 1);
    }
}
