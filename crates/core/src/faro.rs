//! FARO — FLP-aware memory request over-commitment (§4.2).
//!
//! FARO supplies flash controllers with as many memory requests per chip as early
//! as possible, so that when the chip becomes free the controller can coalesce a
//! single transaction with the highest possible flash-level parallelism.  Because
//! indiscriminate over-commitment could create flash-level contention, FARO ranks
//! candidates by two metrics:
//!
//! * **overlap depth** — how many requests target *different* dies/planes of the
//!   same chip (an FLP-oriented metric), and
//! * **connectivity** — how many of a chip's candidate requests belong to the same
//!   I/O request (a latency-oriented metric).
//!
//! The I/O request with the highest overlap depth is over-committed first; ties
//! break on connectivity, then on arrival order.

use sprinkler_ssd::request::TagId;

/// Configuration of the over-commitment policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaroConfig {
    /// Maximum committed-but-incomplete memory requests FARO keeps per chip.
    pub overcommit_depth: usize,
}

impl Default for FaroConfig {
    fn default() -> Self {
        // Two dies × four planes: enough depth to fill a PAL3 transaction twice.
        FaroConfig {
            overcommit_depth: 16,
        }
    }
}

/// One candidate memory request targeting a specific chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaroCandidate {
    /// The I/O request (tag) the candidate belongs to.
    pub tag: TagId,
    /// Page offset within the I/O request.
    pub page: u32,
    /// Die the candidate targets.
    pub die: u32,
    /// Plane the candidate targets.
    pub plane: u32,
    /// Arrival rank of the tag (0 = oldest); used as the final tie break.
    pub arrival_rank: usize,
}

/// Reusable working buffers for [`FaroSelector::select_into`].
///
/// The selector itself is `Copy` serializable configuration, so the ranking
/// loop's working storage lives with the caller and is threaded through each
/// selection; after warm-up no selection allocates.
#[derive(Debug, Clone, Default)]
pub struct FaroScratch {
    remaining: Vec<FaroCandidate>,
    occupied: Vec<(u32, u32)>,
    tags: Vec<TagId>,
    members: Vec<FaroCandidate>,
}

/// The FARO candidate selector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaroSelector {
    config: FaroConfig,
}

impl FaroSelector {
    /// Creates a selector with the given configuration.
    pub fn new(config: FaroConfig) -> Self {
        FaroSelector { config }
    }

    /// The configured over-commitment depth.
    pub fn overcommit_depth(&self) -> usize {
        self.config.overcommit_depth
    }

    /// Overlap depth of a candidate set: the number of distinct (die, plane) pairs
    /// it would activate on the chip.
    pub fn overlap_depth(candidates: &[FaroCandidate]) -> usize {
        let mut pairs: Vec<(u32, u32)> = candidates.iter().map(|c| (c.die, c.plane)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs.len()
    }

    /// Connectivity of `tag` within a candidate set: how many candidates belong to
    /// it.
    pub fn connectivity(candidates: &[FaroCandidate], tag: TagId) -> usize {
        candidates.iter().filter(|c| c.tag == tag).count()
    }

    /// Selects up to `capacity` candidates for one chip, following Algorithm 1:
    /// repeatedly pick the tag whose candidates contribute the highest overlap
    /// depth (ties broken by connectivity, then arrival order) and over-commit its
    /// requests for this chip.
    pub fn select(&self, candidates: &[FaroCandidate], capacity: usize) -> Vec<(TagId, u32)> {
        let mut selected = Vec::new();
        let mut scratch = FaroScratch::default();
        self.select_into(candidates, capacity, &mut selected, &mut scratch);
        selected
    }

    /// [`FaroSelector::select`] with caller-provided output and working buffers
    /// (allocation-free once warmed up).  Selections are *appended* to `out`.
    /// Returns `true` when the single-tag fast path resolved the selection.
    pub fn select_into(
        &self,
        candidates: &[FaroCandidate],
        capacity: usize,
        out: &mut Vec<(TagId, u32)>,
        scratch: &mut FaroScratch,
    ) -> bool {
        let capacity = capacity.min(self.config.overcommit_depth);
        if capacity == 0 || candidates.is_empty() {
            return false;
        }
        let start = out.len();
        // Fast path for the dominant many-chip shape: every candidate belongs to
        // one tag, so Algorithm 1 degenerates to "over-commit that tag's pages
        // in page order" — no ranking rounds, no working buffers.
        if candidates.windows(2).all(|pair| pair[0].tag == pair[1].tag) {
            out.extend(candidates.iter().map(|c| (c.tag, c.page)));
            out[start..].sort_unstable_by_key(|&(_, page)| page);
            out.truncate(start + capacity);
            return true;
        }
        let FaroScratch {
            remaining,
            occupied,
            tags,
            members,
        } = scratch;
        remaining.clear();
        remaining.extend_from_slice(candidates);
        occupied.clear();

        while out.len() - start < capacity && !remaining.is_empty() {
            // Rank tags by the overlap depth their candidates would add on top of
            // what has already been selected.
            tags.clear();
            tags.extend(remaining.iter().map(|c| c.tag));
            tags.sort_unstable();
            tags.dedup();
            let mut best: Option<(usize, usize, usize, TagId)> = None;
            for &tag in tags.iter() {
                // Overlap: distinct not-yet-occupied (die, plane) pairs among
                // the tag's members, counted at each pair's first occurrence —
                // no scratch pair list needed.
                let mut overlap = 0;
                let mut connectivity = 0;
                let mut rank = usize::MAX;
                for (i, c) in remaining.iter().enumerate() {
                    if c.tag != tag {
                        continue;
                    }
                    connectivity += 1;
                    rank = rank.min(c.arrival_rank);
                    let pair = (c.die, c.plane);
                    if !occupied.contains(&pair)
                        && !remaining[..i]
                            .iter()
                            .any(|p| p.tag == tag && (p.die, p.plane) == pair)
                    {
                        overlap += 1;
                    }
                }
                let better = match &best {
                    None => true,
                    Some((o, c, r, _)) => {
                        (overlap, connectivity, usize::MAX - rank) > (*o, *c, usize::MAX - *r)
                    }
                };
                if better {
                    best = Some((overlap, connectivity, rank, tag));
                }
            }
            let Some((_, _, _, chosen_tag)) = best else {
                break;
            };
            // Over-commit the chosen tag's candidates, preferring ones that open
            // new (die, plane) pairs, oldest pages first.
            members.clear();
            members.extend(remaining.iter().copied().filter(|c| c.tag == chosen_tag));
            members.sort_by_key(|c| (occupied.contains(&(c.die, c.plane)), c.page));
            for member in members.iter() {
                if out.len() - start >= capacity {
                    break;
                }
                out.push((member.tag, member.page));
                if !occupied.contains(&(member.die, member.plane)) {
                    occupied.push((member.die, member.plane));
                }
            }
            remaining.retain(|c| c.tag != chosen_tag);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(tag: u64, page: u32, die: u32, plane: u32, rank: usize) -> FaroCandidate {
        FaroCandidate {
            tag: TagId(tag),
            page,
            die,
            plane,
            arrival_rank: rank,
        }
    }

    #[test]
    fn overlap_depth_counts_distinct_die_plane_pairs() {
        let cs = vec![
            cand(1, 0, 0, 0, 0),
            cand(1, 1, 0, 0, 0),
            cand(2, 0, 0, 1, 1),
            cand(3, 0, 1, 0, 2),
        ];
        assert_eq!(FaroSelector::overlap_depth(&cs), 3);
        assert_eq!(FaroSelector::overlap_depth(&[]), 0);
    }

    #[test]
    fn connectivity_counts_same_tag_members() {
        let cs = vec![
            cand(1, 0, 0, 0, 0),
            cand(1, 1, 0, 1, 0),
            cand(2, 0, 1, 0, 1),
        ];
        assert_eq!(FaroSelector::connectivity(&cs, TagId(1)), 2);
        assert_eq!(FaroSelector::connectivity(&cs, TagId(2)), 1);
        assert_eq!(FaroSelector::connectivity(&cs, TagId(9)), 0);
    }

    #[test]
    fn tag_with_highest_overlap_depth_wins() {
        // Tag 1 covers one plane twice; tag 2 covers two different planes.
        let cs = vec![
            cand(1, 0, 0, 0, 0),
            cand(1, 1, 0, 0, 0),
            cand(2, 0, 0, 1, 1),
            cand(2, 1, 1, 0, 1),
        ];
        let selector = FaroSelector::new(FaroConfig::default());
        let picked = selector.select(&cs, 2);
        assert_eq!(picked.len(), 2);
        assert!(picked.iter().all(|(t, _)| *t == TagId(2)));
    }

    #[test]
    fn connectivity_breaks_overlap_ties() {
        // Both tags add one new plane, but tag 3 has two members (connectivity 2).
        let cs = vec![
            cand(3, 0, 0, 0, 5),
            cand(3, 1, 0, 0, 5),
            cand(4, 0, 0, 1, 1),
        ];
        let selector = FaroSelector::new(FaroConfig::default());
        let picked = selector.select(&cs, 1);
        assert_eq!(picked, vec![(TagId(3), 0)]);
    }

    #[test]
    fn arrival_order_breaks_remaining_ties() {
        let cs = vec![cand(7, 0, 0, 0, 3), cand(8, 0, 0, 1, 1)];
        let selector = FaroSelector::new(FaroConfig::default());
        let picked = selector.select(&cs, 1);
        // Same overlap (1) and connectivity (1); the older tag (rank 1) wins.
        assert_eq!(picked, vec![(TagId(8), 0)]);
    }

    #[test]
    fn capacity_and_depth_are_respected() {
        let cs: Vec<FaroCandidate> = (0..20)
            .map(|i| cand(i as u64, 0, (i % 2) as u32, (i % 4) as u32, i))
            .collect();
        let selector = FaroSelector::new(FaroConfig {
            overcommit_depth: 4,
        });
        assert_eq!(selector.overcommit_depth(), 4);
        assert_eq!(selector.select(&cs, 100).len(), 4);
        assert_eq!(selector.select(&cs, 2).len(), 2);
        assert!(selector.select(&cs, 0).is_empty());
        assert!(selector.select(&[], 5).is_empty());
    }

    /// Pins the single-tag fast path to the general ranking loop: for any
    /// single-tag candidate set, Algorithm 1 selects that tag's pages in page
    /// order up to capacity, so the fast path must produce exactly that.
    #[test]
    fn single_tag_fast_path_matches_the_ranking_loop() {
        // Scrambled page order, duplicate (die, plane) pairs, varying capacity.
        let cs = vec![
            cand(5, 7, 0, 2, 3),
            cand(5, 1, 1, 0, 3),
            cand(5, 4, 0, 2, 3),
            cand(5, 0, 0, 0, 3),
            cand(5, 9, 1, 1, 3),
        ];
        let selector = FaroSelector::new(FaroConfig {
            overcommit_depth: 16,
        });
        for capacity in 0..=6 {
            let fast = selector.select(&cs, capacity);
            // The ranking loop with a single tag: members sorted by page
            // (occupied set is empty at sort time), truncated to capacity.
            let mut expected: Vec<(TagId, u32)> = cs.iter().map(|c| (c.tag, c.page)).collect();
            expected.sort_unstable_by_key(|&(_, page)| page);
            expected.truncate(capacity.min(selector.overcommit_depth()));
            assert_eq!(fast, expected, "capacity {capacity}");
        }
        // A second tag must disable the fast path and exercise the ranking
        // loop: the two-plane tag wins over the single-plane one.
        let mut with_rival = cs.clone();
        with_rival.push(cand(6, 0, 0, 1, 1));
        let picked = selector.select(&with_rival, 6);
        assert_eq!(picked.len(), 6);
        assert!(picked.contains(&(TagId(6), 0)));
    }

    #[test]
    fn select_into_appends_and_reports_the_fast_path() {
        let selector = FaroSelector::new(FaroConfig::default());
        let mut scratch = FaroScratch::default();
        let mut out = vec![(TagId(99), 0)];

        // Single tag: fast path fires, prior contents are preserved.
        let single = vec![cand(1, 1, 0, 1, 0), cand(1, 0, 0, 0, 0)];
        assert!(selector.select_into(&single, 8, &mut out, &mut scratch));
        assert_eq!(out, vec![(TagId(99), 0), (TagId(1), 0), (TagId(1), 1)]);

        // Two tags: ranking loop, fast path not taken, same picks as select().
        let mixed = vec![
            cand(1, 0, 0, 0, 0),
            cand(1, 1, 0, 0, 0),
            cand(2, 0, 0, 1, 1),
            cand(2, 1, 1, 0, 1),
        ];
        out.clear();
        assert!(!selector.select_into(&mixed, 3, &mut out, &mut scratch));
        assert_eq!(out, selector.select(&mixed, 3));

        // Empty input never reports the fast path.
        assert!(!selector.select_into(&[], 8, &mut out, &mut scratch));
    }

    #[test]
    fn selection_never_duplicates_a_candidate() {
        let cs = vec![
            cand(1, 0, 0, 0, 0),
            cand(1, 1, 0, 1, 0),
            cand(2, 0, 1, 0, 1),
            cand(2, 1, 1, 1, 1),
        ];
        let selector = FaroSelector::new(FaroConfig::default());
        let picked = selector.select(&cs, 10);
        assert_eq!(picked.len(), 4);
        let mut unique = picked.clone();
        unique.sort_by_key(|(t, p)| (t.0, *p));
        unique.dedup();
        assert_eq!(unique.len(), 4);
    }
}
