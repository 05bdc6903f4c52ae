//! Garbage collection planning and live-data migration bookkeeping.
//!
//! GC is the most important source of live data migration (§4.3): valid pages of a
//! victim block are read, re-programmed elsewhere, the mapping is updated, and the
//! victim is erased.  The FTL updates its metadata when the plan is built; the SSD
//! substrate turns the plan into real flash traffic (reads, programs, an erase)
//! whose timing competes with host I/O, and fires the readdressing callback for
//! schedulers that support it.

use sprinkler_flash::{Lpn, PhysicalPageAddr};

/// One live page moved by garbage collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMigration {
    /// The logical page that moved.
    pub lpn: Lpn,
    /// Where its data used to live.
    pub from: PhysicalPageAddr,
    /// Where its data lives now.
    pub to: PhysicalPageAddr,
    /// True when the page moved to a *different* plane/die/chip — the only case in
    /// which Sprinkler's readdressing callback needs to fire (§4.3).
    pub crossed_plane: bool,
}

/// A fully planned garbage-collection invocation for one plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcPlan {
    /// The plane being collected (flat plane index).
    pub plane_index: usize,
    /// The victim block within that plane.
    pub victim_block: u32,
    /// Valid pages that must be migrated before the erase.
    pub migrations: Vec<PageMigration>,
    /// Address (any page) of the victim block, used to issue the erase.
    pub erase_addr: PhysicalPageAddr,
}

impl GcPlan {
    /// Number of pages that must be read and re-programmed.
    pub fn migration_count(&self) -> usize {
        self.migrations.len()
    }

    /// Number of migrations that crossed a plane boundary (and therefore require a
    /// readdressing callback).
    pub fn crossed_plane_count(&self) -> usize {
        self.migrations.iter().filter(|m| m.crossed_plane).count()
    }
}

/// Counters describing garbage-collection activity over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Number of GC invocations.
    pub invocations: u64,
    /// Valid pages migrated.
    pub pages_migrated: u64,
    /// Migrations that crossed a plane boundary.
    pub cross_plane_migrations: u64,
    /// Blocks erased by GC.
    pub blocks_erased: u64,
}

impl GcStats {
    /// Records one executed plan.
    pub fn record_plan(&mut self, plan: &GcPlan) {
        self.invocations += 1;
        self.pages_migrated += plan.migration_count() as u64;
        self.cross_plane_migrations += plan.crossed_plane_count() as u64;
        self.blocks_erased += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(block: u32, page: u32) -> PhysicalPageAddr {
        PhysicalPageAddr {
            channel: 0,
            way: 0,
            die: 0,
            plane: 0,
            block,
            page,
        }
    }

    fn sample_plan() -> GcPlan {
        GcPlan {
            plane_index: 0,
            victim_block: 3,
            migrations: vec![
                PageMigration {
                    lpn: Lpn::new(10),
                    from: addr(3, 0),
                    to: addr(5, 0),
                    crossed_plane: false,
                },
                PageMigration {
                    lpn: Lpn::new(11),
                    from: addr(3, 1),
                    to: PhysicalPageAddr {
                        plane: 1,
                        ..addr(5, 1)
                    },
                    crossed_plane: true,
                },
            ],
            erase_addr: addr(3, 0),
        }
    }

    #[test]
    fn plan_counts() {
        let plan = sample_plan();
        assert_eq!(plan.migration_count(), 2);
        assert_eq!(plan.crossed_plane_count(), 1);
    }

    #[test]
    fn stats_accumulate_plans() {
        let mut stats = GcStats::default();
        stats.record_plan(&sample_plan());
        stats.record_plan(&sample_plan());
        assert_eq!(stats.invocations, 2);
        assert_eq!(stats.pages_migrated, 4);
        assert_eq!(stats.cross_plane_migrations, 2);
        assert_eq!(stats.blocks_erased, 2);
    }
}
