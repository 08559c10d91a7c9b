//! 2-way plane-sweep rectangle join.
//!
//! The local step of the 2-way joins of §5: given the rectangles of two
//! sets, report every pair within distance `d` (`d = 0` is the overlap
//! join). The sweep runs along the x axis; an entry of one set is checked
//! against the active x-window of the other. This is the kernel of the
//! cost-based optimizer's selectivity estimates (`mwsj_core::planner`
//! counts the matching pairs of two planning samples with it); the
//! reducers' multi-way kernel subsumes it for the joins themselves.

use mwsj_geom::{Coord, Rect};

use crate::LocalRect;

/// Reports every `(id_left, id_right)` with the rectangles within distance
/// `d` of each other (closed; `d = 0` = overlap). Pairs are emitted in
/// arbitrary order, exactly once each.
pub fn sweep_join(
    left: &[LocalRect],
    right: &[LocalRect],
    d: Coord,
    mut emit: impl FnMut(u32, u32, &Rect, &Rect),
) {
    if left.is_empty() || right.is_empty() {
        return;
    }
    // Events sorted by min_x: the sweep enters a rectangle at min_x and
    // retires it once its x gap to the sweep line alone exceeds `d` — the
    // gap computed exactly as `Rect::within_distance` computes it, so
    // rounding never retires an entry that test would still accept.
    let mut l: Vec<&LocalRect> = left.iter().collect();
    let mut r: Vec<&LocalRect> = right.iter().collect();
    let by_min_x = |a: &&LocalRect, b: &&LocalRect| a.0.min_x().total_cmp(&b.0.min_x());
    l.sort_unstable_by(by_min_x);
    r.sort_unstable_by(by_min_x);
    let reaches = |c: &LocalRect, x: Coord| {
        let gap = (x - c.0.max_x()).max(0.0);
        gap * gap <= d * d
    };
    // `active[0]` holds the entered left entries, `active[1]` the right.
    let mut active: [Vec<&LocalRect>; 2] = [Vec::new(), Vec::new()];
    let (mut i, mut j) = (0usize, 0usize);
    while i < l.len() || j < r.len() {
        let from_left = j == r.len() || (i < l.len() && l[i].0.min_x() <= r[j].0.min_x());
        let (events, next) = if from_left {
            (&l, &mut i)
        } else {
            (&r, &mut j)
        };
        let cur = events[*next];
        *next += 1;
        let x = cur.0.min_x();
        let others = &mut active[usize::from(from_left)];
        others.retain(|c| reaches(c, x));
        for &cand in others.iter() {
            let (a, b) = if from_left { (cur, cand) } else { (cand, cur) };
            if a.0.within_distance(&b.0, d) {
                emit(a.1, b.1, &a.0, &b.0);
            }
        }
        active[usize::from(!from_left)].push(cur);
    }
}

/// Collects the joined id pairs (convenience wrapper over [`sweep_join`]).
#[must_use]
pub fn sweep_join_pairs(left: &[LocalRect], right: &[LocalRect], d: Coord) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    sweep_join(left, right, d, |a, b, _, _| out.push((a, b)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute(left: &[LocalRect], right: &[LocalRect], d: Coord) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (ra, a) in left {
            for (rb, b) in right {
                if ra.within_distance(rb, d) {
                    out.push((*a, *b));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn random_set(n: usize, seed: u64) -> Vec<LocalRect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                (
                    Rect::new(
                        rng.random_range(0.0..500.0),
                        rng.random_range(30.0..500.0),
                        rng.random_range(0.0..30.0),
                        rng.random_range(0.0..30.0),
                    ),
                    i as u32,
                )
            })
            .collect()
    }

    #[test]
    fn overlap_join_matches_brute_force() {
        let l = random_set(300, 1);
        let r = random_set(300, 2);
        let mut got = sweep_join_pairs(&l, &r, 0.0);
        got.sort_unstable();
        assert_eq!(got, brute(&l, &r, 0.0));
    }

    #[test]
    fn range_join_matches_brute_force() {
        let l = random_set(200, 3);
        let r = random_set(200, 4);
        for d in [0.0, 5.0, 25.0, 100.0] {
            let mut got = sweep_join_pairs(&l, &r, d);
            got.sort_unstable();
            assert_eq!(got, brute(&l, &r, d), "d = {d}");
        }
    }

    #[test]
    fn empty_inputs() {
        let l = random_set(10, 5);
        assert!(sweep_join_pairs(&l, &[], 0.0).is_empty());
        assert!(sweep_join_pairs(&[], &l, 0.0).is_empty());
    }

    #[test]
    fn touching_rectangles_join_at_d_zero() {
        let l = vec![(Rect::new(0.0, 10.0, 5.0, 5.0), 0)];
        let r = vec![(Rect::new(5.0, 10.0, 5.0, 5.0), 0)];
        assert_eq!(sweep_join_pairs(&l, &r, 0.0), vec![(0, 0)]);
    }

    #[test]
    fn each_pair_reported_once() {
        // Identical rectangles stress duplicate emission.
        let rect = Rect::new(0.0, 10.0, 5.0, 5.0);
        let l: Vec<LocalRect> = (0..10).map(|i| (rect, i)).collect();
        let r: Vec<LocalRect> = (0..10).map(|i| (rect, i)).collect();
        let pairs = sweep_join_pairs(&l, &r, 0.0);
        assert_eq!(pairs.len(), 100);
        let mut dedup = pairs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 100);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_sweep_equals_brute(
            ls in proptest::collection::vec((0.0..200.0f64, 20.0..200.0f64, 0.0..30.0f64, 0.0..20.0f64), 0..60),
            rs in proptest::collection::vec((0.0..200.0f64, 20.0..200.0f64, 0.0..30.0f64, 0.0..20.0f64), 0..60),
            d in 0.0..50.0f64,
        ) {
            let l: Vec<LocalRect> = ls.into_iter().enumerate()
                .map(|(i, (x, y, w, b))| (Rect::new(x, y, w, b), i as u32)).collect();
            let r: Vec<LocalRect> = rs.into_iter().enumerate()
                .map(|(i, (x, y, w, b))| (Rect::new(x, y, w, b), i as u32)).collect();
            let mut got = sweep_join_pairs(&l, &r, d);
            got.sort_unstable();
            prop_assert_eq!(got, brute(&l, &r, d));
        }
    }
}
