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
//!
//! # Cost
//!
//! [`FaroSelector::select_streamed`], the scheduler's path, is a streaming
//! front end plus a ranking loop.  The scheduler streams a chip's surviving
//! rows in as its walk filters them, so one walk of the rows both filters
//! and ranks.  As candidates stream in, the front end keeps each tag run's
//! first-step score: its length (connectivity), its least arrival rank and
//! its distinct `(die, plane)` pairs (its overlap depth before any pair is
//! occupied), counted against a stamp per pair.  When the best run covers
//! the chip's room, or is the only run, the selection is that run's first
//! pages in page order, and nothing else runs; on `seqread256k-64` 85% of
//! the rankings have room 1 and end there.  Otherwise the ranking loop takes
//! the later steps, each one pass over the runs still waiting: a run's
//! connectivity and arrival rank never change while it waits, and its
//! overlap depth is recounted from its own rows.  One step is O(remaining
//! candidates) and a selection is at most `capacity` steps.
//! [`FaroSelector::select_into`] runs the same path over a slice.
//! [`FaroSelector::select`] keeps Algorithm 1 as written — each step
//! rescans every remaining candidate once per tag — as the oracle the
//! streaming selection and the reference scheduler are checked against.

use sprinkler_ssd::request::TagId;

/// Maximum committed-but-incomplete memory requests FARO keeps per chip:
/// with two dies × four planes, enough to fill a PAL3 transaction twice.
pub const OVERCOMMIT_DEPTH: usize = 16;

/// One candidate memory request targeting a specific chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaroCandidate {
    /// The I/O request (tag) the candidate belongs to.
    pub tag: TagId,
    /// Page offset within the I/O request.
    pub page: u32,
    /// Die the candidate targets; below 64, like the candidate index's die
    /// field.
    pub die: u32,
    /// Plane the candidate targets; below 64, like the candidate index's
    /// plane field.
    pub plane: u32,
    /// Arrival rank of the tag (0 = oldest); used as the final tie break.
    pub arrival_rank: usize,
}

/// Distinct `(die, plane)` pair keys: a die and a plane below 64 each.
const PAIR_KEYS: usize = 64 * 64;

/// The stamp-array index of a candidate's `(die, plane)` pair.
#[inline]
fn pair_key(candidate: &FaroCandidate) -> usize {
    debug_assert!(
        candidate.die < 64 && candidate.plane < 64,
        "die {} / plane {} past the 6-bit candidate fields",
        candidate.die,
        candidate.plane
    );
    (candidate.die as usize) << 6 | candidate.plane as usize
}

/// One tag's run of rows in a selection's candidates, with the ranking
/// inputs that do not change while the tag waits.
#[derive(Debug, Clone, Copy)]
struct TagRun {
    tag: TagId,
    start: usize,
    end: usize,
    /// The least arrival rank among the run's rows.
    rank: usize,
    /// The run's distinct `(die, plane)` pairs: its overlap depth in the
    /// first ranking step, before any pair is occupied.
    pairs: usize,
    /// Whether the run's pages ascend in push order.
    sorted: bool,
}

impl TagRun {
    /// The run's first-step score, compared as the ranking loop compares:
    /// overlap depth, then connectivity, then the older arrival.
    #[inline]
    fn first_score(&self) -> (usize, usize, usize) {
        (self.pairs, self.end - self.start, usize::MAX - self.rank)
    }
}

/// Reusable working buffers for [`FaroSelector::select_into`] and
/// [`FaroSelector::select_streamed`].
///
/// The selector holds no state, so the working storage lives with the
/// caller and is threaded through each selection; after warm-up no
/// selection allocates.
#[derive(Debug, Clone, Default)]
pub struct FaroScratch {
    /// The candidates streamed in by the current selection, in order.
    candidates: Vec<FaroCandidate>,
    /// The tag runs of `candidates`; the ranking loop drops each run it
    /// chooses.
    runs: Vec<TagRun>,
    /// Per `(die, plane)` key, the last stamp written there: the
    /// selection's occupied stamp once a pick activates the pair, otherwise
    /// the stamp of the last run that counted it.
    stamps: Vec<u64>,
    /// The last stamp handed out.  Stamps only grow, so the array is never
    /// cleared: a stale stamp matches neither test.
    stamp: u64,
    /// The chosen run's rows, ordered for commitment.
    members: Vec<FaroCandidate>,
}

/// Stores a closed run, moving `best` to it when it scores strictly higher
/// than the best stored so far: the first of the runs that score highest.
#[inline]
fn close_run(run: TagRun, runs: &mut Vec<TagRun>, best: &mut usize) {
    if runs
        .get(*best)
        .is_some_and(|leader| run.first_score() > leader.first_score())
    {
        *best = runs.len();
    }
    runs.push(run);
}

/// The FARO candidate selector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaroSelector;

impl FaroSelector {
    /// Selects up to `capacity` candidates for one chip by Algorithm 1 as
    /// written: repeatedly pick the tag whose candidates contribute the
    /// highest overlap depth (ties broken by connectivity, then arrival
    /// order) and over-commit its requests for this chip.
    ///
    /// Each ranking step rescans every remaining candidate once per tag, and
    /// every call allocates its working set.  This is the oracle: the
    /// reference scheduler calls it, and [`FaroSelector::select_into`] must
    /// pick exactly what it picks, in the same order.  Candidates need not
    /// be grouped by tag.
    pub fn select(&self, candidates: &[FaroCandidate], capacity: usize) -> Vec<(TagId, u32)> {
        let mut selected = Vec::new();
        let mut remaining = candidates.to_vec();
        let mut occupied: Vec<(u32, u32)> = Vec::new();
        while selected.len() < capacity && !remaining.is_empty() {
            // Rank tags by the overlap depth their candidates would add on
            // top of what has already been selected.  `dedup` lists a tag
            // once per run of its candidates; a tag listed twice scores the
            // same both times, and arrival ranks are unique per tag, so the
            // visiting order cannot change the pick.
            let mut tags: Vec<TagId> = remaining.iter().map(|c| c.tag).collect();
            tags.dedup();
            let mut best: Option<(usize, usize, usize, TagId)> = None;
            for &tag in &tags {
                // Overlap: distinct not-yet-occupied (die, plane) pairs among
                // the tag's members, counted at each pair's first occurrence.
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
            let mut members: Vec<FaroCandidate> = remaining
                .iter()
                .copied()
                .filter(|c| c.tag == chosen_tag)
                .collect();
            members.sort_by_key(|c| (occupied.contains(&(c.die, c.plane)), c.page));
            for member in &members {
                if selected.len() >= capacity {
                    break;
                }
                selected.push((member.tag, member.page));
                if !occupied.contains(&(member.die, member.plane)) {
                    occupied.push((member.die, member.plane));
                }
            }
            remaining.retain(|c| c.tag != chosen_tag);
        }
        selected
    }

    /// [`FaroSelector::select`] over a slice, through
    /// [`FaroSelector::select_streamed`]: caller-provided output and working
    /// buffers (allocation-free once warmed up), selections *appended* to
    /// `out`, and `true` returned when the single-tag fast path resolved the
    /// selection.  Each tag's candidates must be contiguous in `candidates`.
    pub fn select_into(
        &self,
        candidates: &[FaroCandidate],
        capacity: usize,
        out: &mut Vec<(TagId, u32)>,
        scratch: &mut FaroScratch,
    ) -> bool {
        self.select_streamed(candidates.iter().copied(), capacity, out, scratch)
    }

    /// Selects up to `capacity` of `candidates` for one chip, appending the
    /// picks to `out` exactly as [`FaroSelector::select`] orders them.
    /// Returns `true` when the single-tag fast path resolved the selection:
    /// every candidate belongs to one tag and `capacity` is not 0.  The
    /// stream is always drained, whatever `capacity` is.
    ///
    /// Each tag's candidates must be contiguous in the stream, as a chip's
    /// candidate-index rows are: they sort by admission seq, one per tag.
    /// The front end copies the candidates into `scratch` as they stream in
    /// and keeps each tag run's first-step score: its distinct `(die,
    /// plane)` pairs (overlap depth before any pair is occupied), counted
    /// against a stamp per pair, its length (connectivity) and its least
    /// arrival rank.  Step 1 picks the first run that scores strictly
    /// highest; with no pair occupied yet, its pages go in page order.  When
    /// that run fills `capacity`, or no other run is left, the selection
    /// ends there.  Otherwise each later step recounts every waiting run's
    /// overlap depth from its own rows, a pair counting when neither an
    /// earlier pick nor an earlier row of the run has stamped it.  The runs
    /// are visited in stream order and a later run must score strictly
    /// higher to win, as in [`FaroSelector::select`], so the picks and their
    /// order are Algorithm 1's.
    // lint: hot-path
    pub fn select_streamed(
        &self,
        candidates: impl IntoIterator<Item = FaroCandidate>,
        capacity: usize,
        out: &mut Vec<(TagId, u32)>,
        scratch: &mut FaroScratch,
    ) -> bool {
        let FaroScratch {
            candidates: pushed,
            runs,
            stamps,
            stamp,
            members,
        } = scratch;
        pushed.clear();
        runs.clear();
        if stamps.len() < PAIR_KEYS {
            stamps.resize(PAIR_KEYS, 0);
        }
        // The open run, its last page and the best closed run live in
        // locals; a run is stored and scored when the next tag's first
        // candidate, or the stream's end, closes it.
        let mut open: Option<TagRun> = None;
        let mut last_page = 0;
        let mut best = 0;
        let mut current = *stamp;
        for candidate in candidates {
            let index = pushed.len();
            pushed.push(candidate);
            let run = match &mut open {
                Some(run) if run.tag == candidate.tag => {
                    run.end = index + 1;
                    run.rank = run.rank.min(candidate.arrival_rank);
                    run.sorted &= last_page < candidate.page;
                    run
                }
                _ => {
                    if let Some(closed) = open.take() {
                        close_run(closed, runs, &mut best);
                    }
                    current += 1;
                    open.insert(TagRun {
                        tag: candidate.tag,
                        start: index,
                        end: index + 1,
                        rank: candidate.arrival_rank,
                        pairs: 0,
                        sorted: true,
                    })
                }
            };
            last_page = candidate.page;
            // Only the open run is counting, so the newest stamp is its own.
            let mark = &mut stamps[pair_key(&candidate)];
            if *mark != current {
                *mark = current;
                run.pairs += 1;
            }
        }
        *stamp = current;
        let Some(last) = open else {
            return false;
        };
        close_run(last, runs, &mut best);
        if capacity == 0 {
            return false;
        }
        let candidates = &pushed[..];
        debug_assert!(
            runs.iter()
                .enumerate()
                .all(|(i, run)| runs[i + 1..].iter().all(|later| later.tag != run.tag)),
            "FARO candidates are not grouped by tag"
        );
        let run = runs[best];
        let pages = &candidates[run.start..run.end];
        let start = out.len();
        // Fast path for the dominant many-chip shape: every candidate belongs
        // to one tag, so Algorithm 1 degenerates to "over-commit that tag's
        // pages in page order" — no ranking steps.  A best run that fills the
        // room ends the selection the same way, without reporting the fast
        // path.
        let single = runs.len() == 1;
        let in_page_order = if run.sorted {
            pages
        } else {
            members.clear();
            members.extend_from_slice(pages);
            members.sort_unstable_by_key(|c| c.page);
            &members[..]
        };
        let take = capacity.min(pages.len());
        out.extend(in_page_order[..take].iter().map(|c| (c.tag, c.page)));
        if single || pages.len() >= capacity {
            return single;
        }
        *stamp += 1;
        let occupied = *stamp;
        for c in pages {
            stamps[pair_key(c)] = occupied;
        }
        runs.remove(best);
        while out.len() - start < capacity && !runs.is_empty() {
            let mut best: Option<(usize, usize, usize, usize)> = None;
            for (index, run) in runs.iter().enumerate() {
                *stamp += 1;
                let seen = *stamp;
                let mut overlap = 0;
                for c in &candidates[run.start..run.end] {
                    let mark = &mut stamps[pair_key(c)];
                    if *mark != occupied && *mark != seen {
                        *mark = seen;
                        overlap += 1;
                    }
                }
                let connectivity = run.end - run.start;
                let better = match best {
                    None => true,
                    Some((o, c, r, _)) => {
                        (overlap, connectivity, usize::MAX - run.rank) > (o, c, usize::MAX - r)
                    }
                };
                if better {
                    best = Some((overlap, connectivity, run.rank, index));
                }
            }
            let Some((_, _, _, index)) = best else {
                break;
            };
            // Over-commit the chosen tag's candidates, preferring ones that
            // open new (die, plane) pairs, oldest pages first.  Pages are
            // unique within a tag, so the unstable sort orders as a stable
            // one would.
            let run = runs.remove(index);
            members.clear();
            members.extend_from_slice(&candidates[run.start..run.end]);
            members.sort_unstable_by_key(|c| (stamps[pair_key(c)] == occupied, c.page));
            for member in members.iter() {
                if out.len() - start >= capacity {
                    break;
                }
                out.push((member.tag, member.page));
                stamps[pair_key(member)] = occupied;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn tag_with_highest_overlap_depth_wins() {
        // Tag 1 covers one plane twice; tag 2 covers two different planes.
        let cs = vec![
            cand(1, 0, 0, 0, 0),
            cand(1, 1, 0, 0, 0),
            cand(2, 0, 0, 1, 1),
            cand(2, 1, 1, 0, 1),
        ];
        let selector = FaroSelector;
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
        let selector = FaroSelector;
        let picked = selector.select(&cs, 1);
        assert_eq!(picked, vec![(TagId(3), 0)]);
    }

    #[test]
    fn arrival_order_breaks_remaining_ties() {
        let cs = vec![cand(7, 0, 0, 0, 3), cand(8, 0, 0, 1, 1)];
        let selector = FaroSelector;
        let picked = selector.select(&cs, 1);
        // Same overlap (1) and connectivity (1); the older tag (rank 1) wins.
        assert_eq!(picked, vec![(TagId(8), 0)]);
    }

    #[test]
    fn capacity_and_depth_are_respected() {
        let cs: Vec<FaroCandidate> = (0..20)
            .map(|i| cand(i as u64, 0, (i % 2) as u32, (i % 4) as u32, i))
            .collect();
        let mut scratch = FaroScratch::default();
        for capacity in [0, 2, OVERCOMMIT_DEPTH, 100] {
            let expected = capacity.min(cs.len());
            assert_eq!(FaroSelector.select(&cs, capacity).len(), expected);
            let mut out = Vec::new();
            FaroSelector.select_into(&cs, capacity, &mut out, &mut scratch);
            assert_eq!(out.len(), expected);
        }
        assert!(FaroSelector.select(&[], 5).is_empty());
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
        let selector = FaroSelector;
        let mut scratch = FaroScratch::default();
        for capacity in 0..=6 {
            let mut fast = Vec::new();
            let took_fast_path = selector.select_into(&cs, capacity, &mut fast, &mut scratch);
            assert_eq!(took_fast_path, capacity > 0, "capacity {capacity}");
            // The ranking loop with a single tag: members sorted by page
            // (occupied set is empty at sort time), truncated to capacity.
            let mut expected: Vec<(TagId, u32)> = cs.iter().map(|c| (c.tag, c.page)).collect();
            expected.sort_unstable_by_key(|&(_, page)| page);
            expected.truncate(capacity);
            assert_eq!(fast, expected, "capacity {capacity}");
            assert_eq!(
                selector.select(&cs, capacity),
                expected,
                "capacity {capacity}"
            );
        }
        // A second tag must disable the fast path and exercise the ranking
        // loop: the two-plane tag wins over the single-plane one.
        let mut with_rival = cs.clone();
        with_rival.push(cand(6, 0, 0, 1, 1));
        let mut picked = Vec::new();
        assert!(!selector.select_into(&with_rival, 6, &mut picked, &mut scratch));
        assert_eq!(picked.len(), 6);
        assert!(picked.contains(&(TagId(6), 0)));
        assert_eq!(picked, selector.select(&with_rival, 6));
    }

    #[test]
    fn select_into_appends_and_reports_the_fast_path() {
        let selector = FaroSelector;
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

    /// Candidates need not arrive grouped by tag: a tag listed twice in the
    /// ranking scores the same both times, so interleaving changes no pick.
    #[test]
    fn interleaved_candidates_select_like_grouped_ones() {
        let grouped = [
            cand(1, 0, 0, 0, 0),
            cand(1, 1, 0, 1, 0),
            cand(2, 0, 1, 0, 1),
            cand(2, 1, 1, 1, 1),
            cand(3, 0, 0, 0, 2),
        ];
        let interleaved = [0, 2, 4, 1, 3].map(|i| grouped[i]);
        let selector = FaroSelector;
        for capacity in 1..=5 {
            assert_eq!(
                selector.select(&interleaved, capacity),
                selector.select(&grouped, capacity),
                "capacity {capacity}"
            );
        }
    }

    /// Tags that tie on overlap, connectivity and arrival rank go in
    /// candidate order: a later tag must score strictly higher to win.
    #[test]
    fn full_ties_go_to_the_earlier_tag() {
        let cs = [
            cand(4, 0, 0, 0, 2),
            cand(3, 0, 0, 1, 2),
            cand(5, 0, 1, 0, 2),
        ];
        let selector = FaroSelector;
        let mut scratch = FaroScratch::default();
        for capacity in 1..=3 {
            let mut picked = Vec::new();
            selector.select_into(&cs, capacity, &mut picked, &mut scratch);
            let expected = [(TagId(4), 0), (TagId(3), 0), (TagId(5), 0)];
            assert_eq!(picked, expected[..capacity], "capacity {capacity}");
            assert_eq!(selector.select(&cs, capacity), picked);
        }
    }

    #[test]
    fn selection_never_duplicates_a_candidate() {
        let cs = vec![
            cand(1, 0, 0, 0, 0),
            cand(1, 1, 0, 1, 0),
            cand(2, 0, 1, 0, 1),
            cand(2, 1, 1, 1, 1),
        ];
        let selector = FaroSelector;
        let picked = selector.select(&cs, 10);
        assert_eq!(picked.len(), 4);
        let mut unique = picked.clone();
        unique.sort_by_key(|(t, p)| (t.0, *p));
        unique.dedup();
        assert_eq!(unique.len(), 4);
    }

    /// A chip's candidates as a round streams them: 1–8 tags of 1–8 rows,
    /// each tag's rows contiguous, dies and planes below 4 (so tags share
    /// and repeat pairs), a distinct arrival rank per tag in no particular
    /// order, and each tag's pages a scrambled run of distinct offsets.
    fn arb_chip_candidates() -> impl Strategy<Value = Vec<FaroCandidate>> {
        let tag = (
            1usize..9,
            prop::collection::vec((0u32..4, 0u32..4), 8..9),
            0usize..1000,
            (0u32..4, 0u32..8),
        );
        prop::collection::vec(tag, 1..9).prop_map(|tags| {
            let mut candidates = Vec::new();
            for (index, (len, pairs, rank, (stride, offset))) in tags.into_iter().enumerate() {
                for (row, (die, plane)) in pairs.into_iter().take(len).enumerate() {
                    candidates.push(FaroCandidate {
                        tag: TagId(index as u64),
                        // An odd stride is a unit mod 8: distinct pages.
                        page: (row as u32 * (2 * stride + 1) + offset) % 8,
                        die,
                        plane,
                        arrival_rank: rank * 8 + index,
                    });
                }
            }
            candidates
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The streaming front end and the ranking loop pick exactly what
        /// Algorithm 1 as written picks, in the same order, for every room
        /// up to the over-commitment depth, and report the fast path exactly
        /// when one tag holds every candidate.  One scratch serves every
        /// room, so nothing a selection leaves behind may leak into the
        /// next.
        #[test]
        fn streaming_selection_matches_algorithm_one(candidates in arb_chip_candidates()) {
            let one_tag = candidates.iter().all(|c| c.tag == candidates[0].tag);
            let mut scratch = FaroScratch::default();
            for room in 1..=OVERCOMMIT_DEPTH {
                let mut picked = Vec::new();
                let fast = FaroSelector.select_into(&candidates, room, &mut picked, &mut scratch);
                prop_assert_eq!(&picked, &FaroSelector.select(&candidates, room), "room {}", room);
                prop_assert_eq!(fast, one_tag, "room {}", room);
            }
        }
    }
}
